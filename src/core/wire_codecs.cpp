#include "core/wire_codecs.hpp"

#include "bftcup/bftcup_node.hpp"
#include "bftcup/pbft.hpp"
#include "cup/messages.hpp"
#include "scp/envelope.hpp"
#include "scp/ledger.hpp"

namespace scup::core {

namespace {

template <class T>
constexpr WireCodec codec_of() {
  return {T::kWireType, &T::wire_decode};
}

constexpr WireCodec kWireCodecs[] = {
    codec_of<cup::DiscoverMsg>(),
    codec_of<cup::CertGossipMsg>(),
    codec_of<cup::KnownMsg>(),
    codec_of<cup::GetSinkMsg>(),
    codec_of<cup::SinkValueMsg>(),
    codec_of<scp::Envelope>(),
    codec_of<scp::SlotEnvelope>(),
    codec_of<bftcup::PrePrepareMsg>(),
    codec_of<bftcup::PrepareMsg>(),
    codec_of<bftcup::CommitMsg>(),
    codec_of<bftcup::ViewChangeMsg>(),
    codec_of<bftcup::NewViewMsg>(),
    codec_of<bftcup::DecisionMsg>(),
};

}  // namespace

std::span<const WireCodec> wire_codecs() { return kWireCodecs; }

sim::MessagePtr decode_frame(const std::uint8_t* data, std::size_t size) {
  sim::WireReader reader(data, size);
  const std::uint16_t type = reader.u16();
  if (!reader.ok()) return nullptr;
  for (const WireCodec& codec : kWireCodecs) {
    if (codec.type != type) continue;
    sim::MessagePtr msg = codec.decode(reader);
    // A frame must be consumed exactly: trailing bytes mean a forged or
    // corrupted length field somewhere upstream, so the whole frame is
    // rejected rather than silently ignored.
    if (!reader.ok() || reader.remaining() != 0) return nullptr;
    return msg;
  }
  return nullptr;
}

sim::MessagePtr decode_frame(const std::vector<std::uint8_t>& frame) {
  return decode_frame(frame.data(), frame.size());
}

}  // namespace scup::core
