#include "core/ledger_node.hpp"

#include "sinkdetector/slice_builder.hpp"

namespace scup::core {

LedgerNode::LedgerNode(NodeSet pd, std::size_t f, std::size_t target_slots,
                       scp::ScpConfig scp_config,
                       cup::DiscoveryConfig discovery,
                       std::size_t slot_window)
    : ComposedNode(f),
      pd_(std::move(pd)),
      target_slots_(target_slots),
      detector_(*this, pd_, discovery),
      ledger_(*this, pd_.universe_size(), fbqs::QSet(), target_slots,
              scp_config, slot_window) {
  detector_.on_result = [this](const sinkdetector::GetSinkResult& r) {
    on_sink(r);
  };
  ledger_.on_slot_decided = [this](std::uint64_t, Value) {
    last_close_ = now();
    // The chain is closed: retire the discovery requery timer.
    if (ledger_.decided_slots() >= target_slots_) detector_.stop_requery();
  };
}

void LedgerNode::set_value_provider(
    std::function<Value(std::uint64_t)> provider) {
  ledger_.value_provider = std::move(provider);
}

void LedgerNode::start() {
  if (!ledger_.value_provider) {
    // Deterministic default: distinct per (node, slot), never zero.
    const ProcessId self_id = id();
    ledger_.value_provider = [self_id](std::uint64_t slot) {
      return hash_mix(0xbeef, self_id, slot) | 1;
    };
  }
  for (ProcessId p : pd_) ledger_.add_peer(p);
  detector_.start();
}

void LedgerNode::on_sink(const sinkdetector::GetSinkResult& result) {
  const fbqs::SliceSet slices =
      sinkdetector::build_slices(result, fault_threshold());
  ledger_.set_qset(slices.to_qset());
  for (ProcessId p : result.sink) ledger_.add_peer(p);
  ledger_.start();
}

void LedgerNode::on_message(ProcessId from, const sim::MessagePtr& msg) {
  ledger_.add_peer(from);
  if (const auto* get_sink = dynamic_cast<const cup::GetSinkMsg*>(msg.get())) {
    if (get_sink->origin < universe()) ledger_.add_peer(get_sink->origin);
  }
  if (detector_.handle(from, *msg)) return;
  if (ledger_.handle(from, msg)) return;
}

void LedgerNode::on_timer(int timer_id) {
  if (detector_.on_timer(timer_id)) return;
  ledger_.on_timer(timer_id);
}

}  // namespace scup::core
