// Polymorphic message base for the simulator.
//
// Each protocol layer (certificate gossip, SINK discovery, sink detector,
// SCP, PBFT) defines its own Message subclasses and dispatches on them in
// Process::on_message. Messages are immutable once sent and shared between
// the sender's log and all recipients.
//
// The per-send hot path reads two lazily-filled per-object caches instead of
// making virtual calls: metrics_type_id() (interned type name) and
// send_size() (exact encoded frame size for types with a wire codec, the
// memoized byte_size() estimate otherwise). A message keeps its frame's
// size, never the frame: encode_frame() encodes afresh on each call. The
// caches are plain fields: each Simulation runs on one thread and no
// message object leaves it. Construction goes through make_message(), a
// plain make_shared (DESIGN.md §4.9).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace scup::sim {

class WireWriter;

/// Process-wide interner mapping stable message type names to dense small
/// integer ids. Metrics accounting on the per-send hot path is then a
/// vector index instead of a std::string construction plus two map
/// lookups; names are materialized again only at report time. Ids are
/// assigned on first use and stable for the process lifetime (they are
/// shared across Simulation instances).
class MessageTypeRegistry {
 public:
  static std::uint32_t intern(const std::string& name);
  static const std::string& name_of(std::uint32_t id);
  /// Number of ids handed out so far.
  static std::size_t count();
};

/// Wire type id reserved for "no codec": such types fall back to the
/// virtual byte_size() estimate for traffic accounting and cannot be
/// decoded from bytes.
inline constexpr std::uint16_t kWireTypeNone = 0;

class Message {
 public:
  Message() = default;
  // A copy keeps the interned id (ids are process-wide, so the value
  // transfers) but not the size cache: it is a distinct object that may be
  // mutated before it is ever sent, so it encodes on its own first send.
  Message(const Message& other) : metrics_type_id_(other.metrics_type_id_) {}
  Message& operator=(const Message& other) {
    metrics_type_id_ = other.metrics_type_id_;
    size_cache_ = kNoCachedSize;
    size_from_codec_ = false;
    return *this;
  }
  virtual ~Message() = default;

  /// Stable name used for metrics aggregation (e.g. "scp.prepare").
  virtual std::string type_name() const = 0;

  /// Approximate wire size in bytes, for traffic accounting of types
  /// without a codec (test and bench messages). Types with a codec
  /// (wire_type() != kWireTypeNone) are accounted by their exact encoded
  /// frame size and never call this.
  virtual std::size_t byte_size() const { return 64; }

  /// Dense process-wide id of this type's wire frame, or kWireTypeNone.
  virtual std::uint16_t wire_type() const { return kWireTypeNone; }

  /// Appends the frame payload (everything after the u16 type header).
  /// Only called when wire_type() != kWireTypeNone; must not throw.
  virtual void wire_encode(WireWriter& /*writer*/) const {}

  /// Interned id of type_name(), computed lazily once per message object —
  /// a broadcast fanning one message out to n destinations interns once
  /// and reads the cached id n-1 times.
  std::uint32_t metrics_type_id() const {
    if (metrics_type_id_ == kUninternedTypeId) {
      metrics_type_id_ = MessageTypeRegistry::intern(type_name());
    }
    return metrics_type_id_;
  }

  struct SendSize {
    /// Bytes charged to SimMetrics for one send of this message.
    std::size_t bytes = 0;
    /// True iff this call performed the once-per-message sizing encode.
    bool encoded_now = false;
    /// True iff `bytes` is an exact encoded frame size (vs. estimate).
    bool from_codec = false;
  };

  /// Size charged per send: the exact frame size when this type has a
  /// codec, else the memoized byte_size() estimate. The first call encodes
  /// the frame into thread-local scratch and keeps only its size; every
  /// later send is a field read.
  SendSize send_size() const {
    if (size_cache_ != kNoCachedSize) {
      return {size_cache_, false, size_from_codec_};
    }
    return send_size_slow();
  }

  /// The encoded frame (u16 type header ++ payload) in a fresh vector, or
  /// an empty one when this type has no codec. Nothing is cached: this is
  /// for tests and decoder round trips, not the send path.
  std::vector<std::uint8_t> encode_frame() const;

 private:
  SendSize send_size_slow() const;

  static constexpr std::uint32_t kUninternedTypeId = 0xffffffffu;
  static constexpr std::uint32_t kNoCachedSize = 0xffffffffu;

  // The caches are per-object state invisible to message semantics.
  // size_cache_ holds the byte_size() estimate for codec-less types and
  // the frame size once size_from_codec_ is set.
  mutable std::uint32_t metrics_type_id_ = kUninternedTypeId;
  mutable std::uint32_t size_cache_ = kNoCachedSize;
  mutable bool size_from_codec_ = false;
};

using MessagePtr = std::shared_ptr<const Message>;

/// The construction chokepoint for every message in the system.
template <typename T, typename... Args>
MessagePtr make_message(Args&&... args) {
  return std::make_shared<const T>(std::forward<Args>(args)...);
}

}  // namespace scup::sim
