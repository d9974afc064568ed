// LedgerNode — a blockchain replica on CUP knowledge: the StellarCupNode
// pipeline (sink detector + Algorithm-2 slices), but closing a chain of
// ledger slots instead of a single consensus instance. This is the
// "permissionless ledger" deployment the paper's introduction motivates.
#pragma once

#include "common/node_set.hpp"
#include "scp/ledger.hpp"
#include "sim/composed.hpp"
#include "sinkdetector/sink_detector.hpp"

namespace scup::core {

class LedgerNode : public sim::ComposedNode {
 public:
  /// Proposes `value_provider(slot)` for each slot (defaults to a
  /// deterministic per-node value when not set before the sink detector
  /// returns). Closes `target_slots` ledgers then idles.
  LedgerNode(NodeSet pd, std::size_t f, std::size_t target_slots,
             scp::ScpConfig scp_config = {},
             cup::DiscoveryConfig discovery = {});

  /// Per-slot proposal source; must be set before the simulation starts.
  void set_value_provider(std::function<Value(std::uint64_t)> provider);

  void start() override;
  void on_message(ProcessId from, const sim::MessagePtr& msg) override;
  void on_timer(int timer_id) override;

  bool sink_detected() const { return detector_.has_result(); }
  std::uint64_t decided_slots() const { return ledger_.decided_slots(); }
  Value slot_decision(std::uint64_t slot) const {
    return ledger_.slot_decision(slot);
  }
  std::uint64_t chain_digest() const { return ledger_.chain_digest(); }
  SimTime last_close_time() const { return last_close_; }
  /// Chain-wide quorum-evaluation work (shared engine across slots, E13).
  const fbqs::QuorumEngineStats& quorum_stats() const {
    return ledger_.engine().stats();
  }
  const scp::LedgerMultiplexer& ledger() const { return ledger_; }
  /// Mutable access, so a host can chain its own on_slot_decided handler
  /// after the one this node installs.
  scp::LedgerMultiplexer& ledger() { return ledger_; }

 private:
  void on_sink(const sinkdetector::GetSinkResult& result);

  NodeSet pd_;
  std::size_t target_slots_;
  sinkdetector::SinkDetector detector_;
  scp::LedgerMultiplexer ledger_;
  SimTime last_close_ = 0;
};

}  // namespace scup::core
