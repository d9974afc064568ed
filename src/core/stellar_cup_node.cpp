#include "core/stellar_cup_node.hpp"

#include "sinkdetector/slice_builder.hpp"

namespace scup::core {

StellarCupNode::StellarCupNode(NodeSet pd, std::size_t f, Value value,
                               StellarCupConfig config)
    : ComposedNode(f),
      pd_(std::move(pd)),
      value_(value),
      detector_(*this, pd_, config.discovery),
      scp_(*this, pd_.universe_size(), fbqs::QSet(), value, config.scp) {
  detector_.on_result = [this](const sinkdetector::GetSinkResult& r) {
    on_sink(r);
  };
}

void StellarCupNode::start() {
  for (ProcessId p : pd_) learn_peer(p);
  detector_.start();
}

void StellarCupNode::on_sink(const sinkdetector::GetSinkResult& result) {
  sd_time_ = now();
  // Algorithm 2: slices from ⟨flag, V⟩ and f, a threshold QSet.
  scp_.set_qset(sinkdetector::build_slices(result, fault_threshold()));
  for (ProcessId p : result.sink) learn_peer(p);
  scp_.start();
  if (scp_.decided()) note_decided();  // buffered envelopes sufficed
  scp_.on_decide = [this](Value) { note_decided(); };
}

void StellarCupNode::note_decided() {
  if (decision_time_ == kTimeInfinity) decision_time_ = now();
  detector_.stop_requery();
}

void StellarCupNode::learn_peer(ProcessId p) {
  if (p == id()) return;
  scp_.add_peer(p);
}

void StellarCupNode::on_message(ProcessId from, const sim::MessagePtr& msg) {
  // "Upon receipt of a message, j may add i to Π_j": any sender becomes a
  // peer for SCP broadcasts. This is how sink members learn about non-sink
  // members that need their envelopes.
  learn_peer(from);
  if (const auto* get_sink = sim::message_as<cup::GetSinkMsg>(msg.get())) {
    // The flood origin also becomes a peer (we may never hear from it
    // directly, but it needs our SCP envelopes if it is a non-sink member).
    if (get_sink->origin < universe()) learn_peer(get_sink->origin);
  }
  if (detector_.handle(from, *msg)) return;
  if (scp_.handle(from, msg)) {
    if (scp_.decided()) note_decided();
    return;
  }
}

void StellarCupNode::on_timer(int timer_id) {
  if (detector_.on_timer(timer_id)) return;
  if (timer_id == scp::kScpBallotTimerId) {
    scp_.on_ballot_timer();
    if (scp_.decided()) note_decided();
  }
}

}  // namespace scup::core
