#include "core/wire_codecs.hpp"

#include "bftcup/bftcup_node.hpp"
#include "bftcup/pbft.hpp"
#include "cup/messages.hpp"
#include "scp/envelope.hpp"
#include "scp/ledger.hpp"

namespace scup::core {

namespace {

template <class T>
constexpr WireCodec codec_of(const char* name) {
  return {T::kWireType, name, &T::wire_decode};
}

constexpr WireCodec kWireCodecs[] = {
    codec_of<cup::DiscoverMsg>("cup.discover"),
    codec_of<cup::CertGossipMsg>("cup.certs"),
    codec_of<cup::KnownMsg>("cup.known"),
    codec_of<cup::GetSinkMsg>("cup.get_sink"),
    codec_of<cup::SinkValueMsg>("cup.sink_value"),
    codec_of<scp::Envelope>("scp.envelope"),
    codec_of<scp::SlotEnvelope>("scp.slot_envelope"),
    codec_of<bftcup::PrePrepareMsg>("pbft.preprepare"),
    codec_of<bftcup::PrepareMsg>("pbft.prepare"),
    codec_of<bftcup::CommitMsg>("pbft.commit"),
    codec_of<bftcup::ViewChangeMsg>("pbft.viewchange"),
    codec_of<bftcup::NewViewMsg>("pbft.newview"),
    codec_of<bftcup::DecisionRequestMsg>("bftcup.decision_req"),
    codec_of<bftcup::DecisionMsg>("bftcup.decision"),
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
