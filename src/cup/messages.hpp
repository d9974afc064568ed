// Wire messages of the knowledge-discovery layer (Section VI).
//
// Each message implements the wire codec (DESIGN.md §4.9): wire_type()
// names its frame id, wire_encode() appends the canonical little-endian
// payload, and wire_decode() rebuilds a message from an untrusted reader
// (returning nullptr on any malformed input). The sink-detector layer
// reuses KnownMsg/GetSinkMsg/SinkValueMsg, so these five codecs cover both
// discovery families.
#pragma once

#include <vector>

#include "common/node_set.hpp"
#include "sim/message.hpp"
#include "sim/wire.hpp"

namespace scup::cup {

/// Frame ids 1..5 (see the allocation table in sim/wire.hpp callers).
inline constexpr std::uint16_t kWireTypeDiscover = 1;
inline constexpr std::uint16_t kWireTypeCertGossip = 2;
inline constexpr std::uint16_t kWireTypeKnown = 3;
inline constexpr std::uint16_t kWireTypeGetSink = 4;
inline constexpr std::uint16_t kWireTypeSinkValue = 5;

/// A participant-detector certificate: process `owner` asserts that its PD
/// equals `pd`. In the real system this would be signed by `owner`; here the
/// convention is that only `owner` (or an adversarial `owner`) creates
/// certificates for itself, and everyone may forward them. A Byzantine owner
/// may issue conflicting certificates; receivers merge them by union (see
/// DESIGN.md §4.1).
struct PdCertificate {
  ProcessId owner = kInvalidProcess;
  NodeSet pd;
};

/// DISCOVER: "send me what you know". Carries the sender's own certificate
/// so that knowledge also flows forward along the query.
struct DiscoverMsg final : sim::Message {
  explicit DiscoverMsg(PdCertificate c) : cert(std::move(c)) {}
  PdCertificate cert;
  std::string_view type_name() const override { return "cup.discover"; }
  static constexpr std::uint16_t kWireType = kWireTypeDiscover;
  std::uint16_t wire_type() const override { return kWireType; }
  void wire_encode(sim::WireWriter& w) const override {
    w.u32(cert.owner);
    w.node_set(cert.pd);
  }
  static sim::MessagePtr wire_decode(sim::WireReader& r) {
    PdCertificate cert;
    cert.owner = r.u32();
    cert.pd = r.node_set();
    if (!r.ok()) return nullptr;
    return sim::make_message<DiscoverMsg>(std::move(cert));
  }
};

/// Reply to DISCOVER (and general gossip): all certificates the sender
/// holds, merged per owner, in strictly ascending owner order.
struct CertGossipMsg final : sim::Message {
  explicit CertGossipMsg(std::vector<PdCertificate> c) : certs(std::move(c)) {}
  std::vector<PdCertificate> certs;
  std::string_view type_name() const override { return "cup.certs"; }
  static constexpr std::uint16_t kWireType = kWireTypeCertGossip;
  std::uint16_t wire_type() const override { return kWireType; }
  void wire_encode(sim::WireWriter& w) const override {
    w.u32(static_cast<std::uint32_t>(certs.size()));
    for (const auto& [owner, pd] : certs) {
      w.u32(owner);
      w.node_set(pd);
    }
  }
  static sim::MessagePtr wire_decode(sim::WireReader& r) {
    const std::uint32_t count = r.u32();
    // Smallest possible entry is 12 bytes (owner + empty NodeSet), so a
    // forged count cannot force an oversized reservation.
    if (!r.fits(count, 12)) {
      r.fail();
      return nullptr;
    }
    std::vector<PdCertificate> certs;
    certs.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const ProcessId owner = r.u32();
      if (i > 0 && owner <= certs.back().owner) {
        // Canonical frames list owners in ascending order; anything else
        // is a forgery or corruption.
        r.fail();
        return nullptr;
      }
      certs.push_back({owner, r.node_set()});
      if (!r.ok()) return nullptr;
    }
    return sim::make_message<CertGossipMsg>(std::move(certs));
  }
};

/// Step 2/3 of the SINK algorithm: the sender believes the set of processes
/// it can discover is `known`.
struct KnownMsg final : sim::Message {
  explicit KnownMsg(NodeSet k) : known(std::move(k)) {}
  NodeSet known;
  std::string_view type_name() const override { return "cup.known"; }
  static constexpr std::uint16_t kWireType = kWireTypeKnown;
  std::uint16_t wire_type() const override { return kWireType; }
  void wire_encode(sim::WireWriter& w) const override { w.node_set(known); }
  static sim::MessagePtr wire_decode(sim::WireReader& r) {
    NodeSet known = r.node_set();
    if (!r.ok()) return nullptr;
    return sim::make_message<KnownMsg>(std::move(known));
  }
};

/// Reachable-reliable broadcast payload: `origin` asks the sink members to
/// send it the sink (tag GET_SINK in Algorithm 3). Flooded along knowledge
/// edges with per-origin deduplication.
struct GetSinkMsg final : sim::Message {
  explicit GetSinkMsg(ProcessId o) : origin(o) {}
  ProcessId origin;
  std::string_view type_name() const override { return "cup.get_sink"; }
  static constexpr std::uint16_t kWireType = kWireTypeGetSink;
  std::uint16_t wire_type() const override { return kWireType; }
  void wire_encode(sim::WireWriter& w) const override { w.u32(origin); }
  static sim::MessagePtr wire_decode(sim::WireReader& r) {
    const ProcessId origin = r.u32();
    if (!r.ok()) return nullptr;
    return sim::make_message<GetSinkMsg>(origin);
  }
};

/// ⟨SINK, V⟩ in Algorithm 3: the sender claims the sink component is `sink`.
struct SinkValueMsg final : sim::Message {
  explicit SinkValueMsg(NodeSet s) : sink(std::move(s)) {}
  NodeSet sink;
  std::string_view type_name() const override { return "cup.sink_value"; }
  static constexpr std::uint16_t kWireType = kWireTypeSinkValue;
  std::uint16_t wire_type() const override { return kWireType; }
  void wire_encode(sim::WireWriter& w) const override { w.node_set(sink); }
  static sim::MessagePtr wire_decode(sim::WireReader& r) {
    NodeSet sink = r.node_set();
    if (!r.ok()) return nullptr;
    return sim::make_message<SinkValueMsg>(std::move(sink));
  }
};

}  // namespace scup::cup
