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
// memoized byte_size() estimate otherwise). Construction goes through
// make_message(), which draws storage from the owning Simulation's
// MessagePool when one is bound to the calling thread (DESIGN.md §4.9).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/message_pool.hpp"

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
  // std::atomic is not copyable; copy the cached value so copied messages
  // keep the interned id (ids are process-wide, so the value transfers).
  // The wire caches are NOT copied: a copy is a distinct object that may be
  // mutated before it is ever sent, so it re-encodes on its own first send.
  Message(const Message& other)
      : metrics_type_id_(
            other.metrics_type_id_.load(std::memory_order_relaxed)) {}
  Message& operator=(const Message& other) {
    metrics_type_id_.store(
        other.metrics_type_id_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    size_cache_.store(kNoCachedSize, std::memory_order_relaxed);
    wire_state_.store(kWireEmpty, std::memory_order_relaxed);
    wire_overflow_.clear();
    return *this;
  }
  virtual ~Message() = default;

  /// Stable name used for metrics aggregation (e.g. "scp.prepare").
  virtual std::string type_name() const = 0;

  /// Approximate wire size in bytes, for traffic accounting of types
  /// without a codec. Types with a codec (wire_type() != kWireTypeNone) are
  /// accounted by their exact encoded frame size instead; their byte_size()
  /// override is a legacy estimate kept for comparison benches.
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
    std::uint32_t id = metrics_type_id_.load(std::memory_order_relaxed);
    if (id == kUninternedTypeId) {
      id = MessageTypeRegistry::intern(type_name());
      metrics_type_id_.store(id, std::memory_order_relaxed);
    }
    return id;
  }

  struct SendSize {
    /// Bytes charged to SimMetrics for one send of this message.
    std::size_t bytes = 0;
    /// True iff this call performed the once-per-message frame encode.
    bool encoded_now = false;
    /// True iff `bytes` is an exact encoded frame size (vs. estimate).
    bool from_codec = false;
  };

  /// Size charged per send: the exact cached frame size when this type has
  /// a codec, else the memoized byte_size() estimate. At most one virtual
  /// call per *message*; every later send is a relaxed atomic load.
  SendSize send_size() const {
    const std::uint32_t cached = size_cache_.load(std::memory_order_relaxed);
    if (cached != kNoCachedSize) {
      return {cached, false,
              wire_state_.load(std::memory_order_relaxed) == kWireReady};
    }
    return send_size_slow();
  }

  /// The cached encoded frame (u16 type header ++ payload), encoding it on
  /// first call. Returns {nullptr, 0} when this type has no codec.
  std::pair<const std::uint8_t*, std::size_t> wire_frame() const;

 private:
  SendSize send_size_slow() const;
  /// Returns true iff this call won the encode race and built the frame.
  bool encode_frame_once() const;

  static constexpr std::uint32_t kUninternedTypeId = 0xffffffffu;
  static constexpr std::uint32_t kNoCachedSize = 0xffffffffu;
  // Encode states: a single winner CASes kWireEmpty -> kWireBuilding,
  // fills the frame storage, then release-stores kWireReady; a concurrent
  // sender of the same message spins on the acquire load. Each Simulation
  // runs on one thread, so such a race needs a message object shared
  // across ScenarioMatrix cells; whether any is shared is unchecked, so
  // the atomics stay until that check and the keep-or-remove decision on
  // the message pool (ROADMAP.md).
  static constexpr std::uint32_t kWireEmpty = 0;
  static constexpr std::uint32_t kWireBuilding = 1;
  static constexpr std::uint32_t kWireReady = 2;
  /// Frames at most this large live inline in the message (which itself
  /// lives in the pool slab); larger frames overflow to one heap buffer.
  static constexpr std::size_t kWireInlineCapacity = 104;

  // The caches are per-object state invisible to message semantics. The
  // lazy fills are atomics so that a message shared across threads would
  // stay safe: racing metrics_type_id fills intern the same name and store
  // the same id (the registry is idempotent); racing frame encodes are
  // serialized by wire_state_ (see the encode states above).
  mutable std::atomic<std::uint32_t> metrics_type_id_{kUninternedTypeId};
  mutable std::atomic<std::uint32_t> size_cache_{kNoCachedSize};
  mutable std::atomic<std::uint32_t> wire_state_{kWireEmpty};
  mutable std::uint32_t wire_size_ = 0;
  mutable std::array<std::uint8_t, kWireInlineCapacity> wire_inline_;
  mutable std::vector<std::uint8_t> wire_overflow_;
};

using MessagePtr = std::shared_ptr<const Message>;

/// The construction chokepoint for every message in the system. When the
/// calling thread is inside a Simulation run loop with pooling enabled
/// (MessagePool::Scope bound), storage comes from the per-Simulation slab
/// pool and steady-state broadcast costs zero allocator round-trips;
/// otherwise this is a plain make_shared. The returned pointer is always a
/// vanilla std::shared_ptr either way — call sites cannot tell the
/// difference, and pooled storage outlives the Simulation if callers keep
/// messages alive past it (the allocator holds the pool state).
template <typename T, typename... Args>
MessagePtr make_message(Args&&... args) {
  if (MessagePool* pool = MessagePool::current()) {
    return std::allocate_shared<const T>(PoolAllocator<T>(*pool),
                                         std::forward<Args>(args)...);
  }
  return std::make_shared<const T>(std::forward<Args>(args)...);
}

}  // namespace scup::sim
