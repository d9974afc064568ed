// The decode side of the wire codec (DESIGN.md §4.9).
//
// Encoding needs no table (wire_encode is a virtual on the message), but
// turning bytes back into messages does, and the decoders live above sim/
// in the layer graph — so the table lives here in core/, the one module
// that sees every protocol family. Its entries are fixed when the library
// is built: a constant array, with no registration step and no lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/message.hpp"
#include "sim/wire.hpp"

namespace scup::core {

/// One decodable frame type: its wire type id and its decoder.
struct WireCodec {
  std::uint16_t type;
  sim::MessagePtr (*decode)(sim::WireReader&);
};

/// The codec of every protocol message family: cup discovery and gossip
/// (which the sink detector reuses), SCP envelopes, ledger SlotEnvelopes,
/// PBFT and BFT-CUP dissemination.
std::span<const WireCodec> wire_codecs();

/// Decodes one full frame (u16 type header ++ payload). Returns nullptr on
/// an unknown type, any reader failure, or trailing bytes left unconsumed.
sim::MessagePtr decode_frame(const std::uint8_t* data, std::size_t size);
sim::MessagePtr decode_frame(const std::vector<std::uint8_t>& frame);

}  // namespace scup::core
