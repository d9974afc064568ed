// Polymorphic message base for the simulator.
//
// Each protocol layer (certificate gossip, SINK discovery, sink detector,
// SCP, PBFT) defines its own Message subclasses and dispatches on them in
// Process::on_message through message_as<T>(), which compares wire type ids
// instead of walking RTTI. Messages are immutable once sent and shared
// between the sender's log and all recipients.
//
// Every message class has a wire codec and a literal type name. The
// per-send hot path reads two lazily-filled per-object caches instead of
// making virtual calls: metrics_type_id() (interned type name) and
// send_size() (exact frame size, counted by running wire_encode against a
// WireWriter that writes nothing). A message keeps its frame's size, never
// the frame: encode_frame() encodes afresh on each call. The caches are
// plain fields: each Simulation runs on one thread and no message object
// leaves it. Construction goes through make_message(), a plain make_shared
// (DESIGN.md §4.9).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
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
  static std::uint32_t intern(std::string_view name);
  static const std::string& name_of(std::uint32_t id);
  /// Number of ids handed out so far.
  static std::size_t count();
};

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
    return *this;
  }
  virtual ~Message() = default;

  /// Stable name used for metrics aggregation (e.g. "scp.prepare"): a view
  /// of a string literal, so naming a message builds no string.
  virtual std::string_view type_name() const = 0;

  /// Dense process-wide id of this type's wire frame.
  virtual std::uint16_t wire_type() const = 0;

  /// Appends the frame payload (everything after the u16 type header);
  /// must not throw.
  virtual void wire_encode(WireWriter& writer) const = 0;

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
    /// True iff this call performed the once-per-message sizing pass.
    bool encoded_now = false;
  };

  /// Size charged per send: the exact frame size. The first call runs
  /// wire_encode against a counting WireWriter, which sums field widths
  /// and writes nothing; every later send is a field read.
  SendSize send_size() const {
    if (size_cache_ != kNoCachedSize) return {size_cache_, false};
    return send_size_slow();
  }

  /// The encoded frame (u16 type header ++ payload) in a fresh vector.
  /// Nothing is cached: this is for tests and decoder round trips, not the
  /// send path.
  std::vector<std::uint8_t> encode_frame() const;

 private:
  SendSize send_size_slow() const;

  static constexpr std::uint32_t kUninternedTypeId = 0xffffffffu;
  static constexpr std::uint32_t kNoCachedSize = 0xffffffffu;

  // The caches are per-object state invisible to message semantics.
  mutable std::uint32_t metrics_type_id_ = kUninternedTypeId;
  mutable std::uint32_t size_cache_ = kNoCachedSize;
};

using MessagePtr = std::shared_ptr<const Message>;

/// `m` as a T when it is one, else null: the delivery router. Every message
/// class declares its frame id as `static constexpr std::uint16_t
/// kWireType` and returns it from wire_type(); ids are unique per class and
/// T is final, so an equal id means `m` is exactly a T. One virtual call
/// and an integer compare, where a dynamic_cast walks RTTI.
template <typename T>
const T* message_as(const Message* m) {
  static_assert(std::is_final_v<T>, "message_as<T>: T must be final");
  if (m == nullptr || m->wire_type() != T::kWireType) return nullptr;
  return static_cast<const T*>(m);
}

/// The construction chokepoint for every message in the system.
template <typename T, typename... Args>
MessagePtr make_message(Args&&... args) {
  return std::make_shared<const T>(std::forward<Args>(args)...);
}

}  // namespace scup::sim
