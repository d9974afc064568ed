// Multi-slot SCP: a ledger of consecutive consensus instances.
//
// The paper analyzes a single consensus instance ("Our analysis is for a
// single instance of consensus", Section III-A); a blockchain closes one
// instance per ledger slot. LedgerMultiplexer runs a chain of independent
// ScpNode instances, one per slot:
//  - outgoing envelopes are wrapped in SlotEnvelope{slot, envelope};
//  - each slot gets its own timer id (kLedgerTimerBase + slot);
//  - slot k starts when slot k-1 externalizes (value from a caller-supplied
//    provider, e.g. the next transaction batch);
//  - envelopes for not-yet-started slots are buffered by the slot's ScpNode
//    (lazily created) — but ONLY within a bounded window past the next slot
//    to start. Without the bound, one forged SlotEnvelope{slot = 10^18}
//    stream makes a Byzantine peer allocate an ScpNode (and buffer
//    envelopes) for any slot number it cares to name — a memory bomb in the
//    unbounded-slots configuration. Correct peers can never run more than a
//    couple of slots ahead (closing a slot needs a quorum that has reached
//    it), so a small window loses nothing.
//
// All slots share one fbqs::QuorumEngine: quorum sets are interned once per
// replica (not once per slot × sender) and the engine's evaluation counters
// aggregate chain-wide, reported into SimMetrics by the multiplexer.
#pragma once

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "scp/scp_node.hpp"

namespace scup::scp {

inline constexpr int kLedgerTimerBase = 10'000;

/// How far past `next_to_start_` a SlotEnvelope may name a slot before it
/// is dropped unprocessed.
inline constexpr std::size_t kSlotWindow = 16;

/// Timer id for a slot's ballot timer. Throws std::overflow_error instead
/// of silently wrapping when the slot number cannot be represented (the
/// historical `static_cast<int>(slot)` overflowed for slots past INT_MAX).
inline int ledger_timer_id(std::uint64_t slot) {
  constexpr auto kMax = static_cast<std::uint64_t>(
      std::numeric_limits<int>::max() - kLedgerTimerBase);
  if (slot > kMax) {
    throw std::overflow_error("ledger_timer_id: slot " +
                              std::to_string(slot) +
                              " exceeds the timer id space");
  }
  // scup-lint: bounded(slot <= INT_MAX - kLedgerTimerBase checked above; overflow throws)
  return kLedgerTimerBase + static_cast<int>(slot);
}

struct SlotEnvelope final : sim::Message {
  SlotEnvelope(std::uint64_t s, Envelope e) : slot(s), envelope(std::move(e)) {}
  std::uint64_t slot;
  Envelope envelope;
  std::string_view type_name() const override {
    static constexpr std::string_view kNames[] = {
        "scp.slot.nominate", "scp.slot.prepare", "scp.slot.confirm",
        "scp.slot.externalize"};
    return kNames[envelope.statement.index()];
  }
  static constexpr std::uint16_t kWireType = kWireTypeSlotEnvelope;
  std::uint16_t wire_type() const override { return kWireType; }
  void wire_encode(sim::WireWriter& w) const override {
    w.u64(slot);
    wire_put_envelope(w, envelope);
  }
  static sim::MessagePtr wire_decode(sim::WireReader& r) {
    const std::uint64_t slot = r.u64();
    std::optional<Envelope> env = wire_get_envelope(r);
    if (!r.ok() || !env.has_value()) return nullptr;
    return sim::make_message<SlotEnvelope>(slot, std::move(*env));
  }
};

class LedgerMultiplexer {
 public:
  /// `target_slots` — stop opening new slots after this many decisions
  /// (0 = unbounded). SlotEnvelopes are accepted only for slots below
  /// next_to_start_ + kSlotWindow; envelopes naming farther slots are
  /// dropped without allocating anything (Byzantine memory-bomb bound).
  LedgerMultiplexer(sim::ProtocolHost& host, std::size_t universe,
                    fbqs::QSet qset, std::size_t target_slots,
                    ScpConfig scp_config = {});

  /// Supplies the proposal for each slot (must be non-zero). Required
  /// before start().
  std::function<Value(std::uint64_t slot)> value_provider;

  /// Fired once per decided slot, in slot order.
  std::function<void(std::uint64_t slot, Value value)> on_slot_decided;

  void set_qset(fbqs::QSet qset);
  void add_peer(ProcessId peer);

  /// Starts slot 1.
  void start();
  bool started() const { return started_; }

  /// Feeds a received message; returns true if consumed (it was a
  /// SlotEnvelope). The slot's ScpNode stores an aliasing pointer to the
  /// inner envelope, which keeps `msg` alive.
  bool handle(ProcessId from, const sim::MessagePtr& msg);

  /// Routes ledger timer ids; returns true iff the id mapped to an existing
  /// slot (ids in the ledger range with no matching slot are NOT claimed,
  /// so composed protocols may use high timer ids).
  bool on_timer(int timer_id);

  /// Number of consecutively decided slots (1..k all externalized).
  /// O(1): maintained incrementally as decisions land.
  std::uint64_t decided_slots() const { return decided_prefix_; }
  Value slot_decision(std::uint64_t slot) const;

  /// Running hash of decisions 1..decided_slots(), for chain-equality
  /// checks across replicas. O(1): folded incrementally as the decided
  /// prefix advances (identical to rehashing the prefix from scratch).
  std::uint64_t chain_digest() const { return digest_; }

  /// Introspection for tests: the ScpNode of a slot, or nullptr.
  const ScpNode* slot_node(std::uint64_t slot) const;
  /// Number of slot instances currently allocated (tests: memory bound).
  std::size_t allocated_slots() const { return slots_.size(); }
  /// SlotEnvelopes dropped by the far-future window bound.
  std::uint64_t envelopes_dropped() const { return envelopes_dropped_; }
  /// The shared quorum-evaluation layer (stats aggregate across slots).
  const fbqs::QuorumEngine& engine() const { return engine_; }

 private:
  /// Per-slot host shim: namespaces messages and timers by slot.
  ///
  /// Broadcasts are zero-copy: ScpNode sends one shared Envelope to every
  /// peer, and the shim wraps it in a SlotEnvelope once, handing the same
  /// immutable wrapper to every destination (cache keyed on the inner
  /// message's identity, held by MessagePtr so the address cannot be
  /// recycled under the cache). kSlotWraps / kSlotWrapsShared count
  /// constructions vs cache hits.
  class SlotHost final : public sim::ProtocolHost {
   public:
    SlotHost(LedgerMultiplexer& mux, std::uint64_t slot)
        : mux_(mux), slot_(slot) {}
    ProcessId self() const override { return mux_.host_.self(); }
    std::size_t universe() const override { return mux_.host_.universe(); }
    std::size_t fault_threshold() const override {
      return mux_.host_.fault_threshold();
    }
    void host_send(ProcessId to, sim::MessagePtr msg) override;
    void host_set_timer(int timer_id, SimTime delay) override;
    std::uint64_t host_sign(std::uint64_t statement) const override {
      return mux_.host_.host_sign(statement);
    }
    bool host_verify(ProcessId signer, std::uint64_t statement,
                     std::uint64_t token) const override {
      return mux_.host_.host_verify(signer, statement, token);
    }

   private:
    LedgerMultiplexer& mux_;
    std::uint64_t slot_;
    sim::MessagePtr last_inner_;    // pins the cached payload's identity
    sim::MessagePtr last_wrapped_;  // its SlotEnvelope, shared by all sends
  };

  struct Slot {
    std::unique_ptr<SlotHost> shim;
    std::unique_ptr<ScpNode> node;
  };

  Slot& ensure_slot(std::uint64_t slot);
  void start_slot(std::uint64_t slot);
  void on_decided(std::uint64_t slot, Value value);
  void flush_counters();

  sim::ProtocolHost& host_;
  std::size_t universe_;
  fbqs::QSet qset_;
  std::size_t target_slots_;
  ScpConfig scp_config_;
  NodeSet peers_;
  bool started_ = false;
  std::uint64_t next_to_start_ = 1;
  std::map<std::uint64_t, Slot> slots_;
  std::map<std::uint64_t, Value> decisions_;
  /// Contiguously decided prefix (1..decided_prefix_ all externalized) and
  /// the running digest over exactly that prefix.
  std::uint64_t decided_prefix_ = 0;
  std::uint64_t digest_ = 0;
  std::uint64_t envelopes_dropped_ = 0;
  /// Shared across all slots; interning + the failed-support tier
  /// chain-wide.
  fbqs::QuorumEngine engine_;
  fbqs::QuorumEngineStats flushed_;
};

}  // namespace scup::scp
