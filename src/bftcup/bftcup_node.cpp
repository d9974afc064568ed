#include "bftcup/bftcup_node.hpp"

#include <stdexcept>

namespace scup::bftcup {

BftCupNode::BftCupNode(NodeSet pd, std::size_t f, Value value,
                       PbftConfig pbft, cup::DiscoveryConfig discovery)
    : ComposedNode(f),
      pd_(std::move(pd)),
      value_(value),
      pbft_config_(pbft),
      detector_(*this, pd_, discovery),
      requesters_(pd_.universe_size()),
      request_forwarded_(pd_.universe_size()),
      decision_voters_(pd_.universe_size()) {
  detector_.on_result = [this](const sinkdetector::GetSinkResult& r) {
    on_sink(r);
  };
}

void BftCupNode::start() {
  // Flood the decision request immediately (like GET_SINK); only non-sink
  // members will end up needing the answers, but flooding is idempotent and
  // membership is unknown at this point.
  request_forwarded_.add(id());
  const auto req = sim::make_message<DecisionRequestMsg>(id());
  for (ProcessId j : pd_) send(j, req);
  detector_.start();
}

void BftCupNode::on_sink(const sinkdetector::GetSinkResult& result) {
  if (!result.is_sink_member) {
    pending_pbft_.clear();  // we will never run PBFT
    pending_keys_.clear();
    return;                 // wait for DecisionMsg votes
  }
  pbft_ = std::make_unique<PbftConsensus>(*this, result.sink, pbft_config_);
  pbft_->on_decide = [this](Value v) { decide(v); };
  pbft_->start(value_);
  for (const auto& [from, msg] : pending_pbft_) pbft_->handle(from, *msg);
  pending_pbft_.clear();
  pending_keys_.clear();
}

void BftCupNode::decide(Value v) {
  if (decided_) return;
  decided_ = v;
  decision_time_ = now();
  // Decided: nothing left to retransmit for (incoming requests are still
  // answered from on_message).
  detector_.stop_requery();
  answer_requests();
}

void BftCupNode::answer_requests() {
  // Only sink members' vouchers count at receivers, but a node cannot know
  // the receiver's view; sending is harmless either way. We answer once per
  // requester.
  if (!decided_) return;
  const auto msg = sim::make_message<DecisionMsg>(*decided_);
  for (ProcessId j : requesters_) {
    send(j, msg);
    requesters_.remove(j);
  }
}

void BftCupNode::on_message(ProcessId from, const sim::MessagePtr& msg) {
  if (detector_.handle(from, *msg)) return;
  if (pbft_) {
    if (pbft_->handle(from, *msg)) return;
  } else if (!detector_.has_result() && is_pbft_message(*msg)) {
    // A later message with the same key, or a view a fresh instance would
    // not admit, is dropped here instead of at replay.
    const std::uint32_t view = pbft_view(*msg);
    if (view <= pbft_config_.view_window &&
        pending_keys_.emplace(from, msg->wire_type(), view).second) {
      pending_pbft_.emplace_back(from, msg);
    }
    return;
  }

  if (const auto* req = sim::message_as<DecisionRequestMsg>(msg.get())) {
    if (req->origin >= universe()) return;
    if (req->origin != id()) requesters_.add(req->origin);
    if (!request_forwarded_.contains(req->origin)) {
      request_forwarded_.add(req->origin);
      const auto fwd = sim::make_message<DecisionRequestMsg>(req->origin);
      for (ProcessId j : pd_) {
        if (j != from) send(j, fwd);
      }
    }
    answer_requests();
    return;
  }

  if (const auto* dec = sim::message_as<DecisionMsg>(msg.get())) {
    // Accept a value vouched for by more than f distinct senders that are,
    // to the best of our knowledge, sink members. Before the sink detector
    // returns we cannot filter by membership; counting distinct senders is
    // still safe because at most f are faulty and correct sink members all
    // vouch for the same (agreed) value. One vote per sender, as the sink
    // detector counts ⟨SINK, V⟩: its first DecisionMsg counts and later
    // ones are ignored, so a Byzantine sender can neither vouch for two
    // values nor grow the table by one entry per value it names.
    if (decision_voters_.contains(from)) return;
    decision_voters_.add(from);
    auto [it, _] = decision_votes_.emplace(dec->value, NodeSet(universe()));
    it->second.add(from);
    if (!decided_ && it->second.count() > fault_threshold()) {
      decide(dec->value);
    }
    return;
  }
}

void BftCupNode::on_timer(int timer_id) {
  if (detector_.on_timer(timer_id)) {
    // Requery tick: our DecisionRequest flood (or its answers) may have
    // been lost pre-GST; re-flood until a decision arrives. Receivers
    // re-add us to `requesters_` and re-answer once decided.
    if (!decided_) {
      const auto req = sim::make_message<DecisionRequestMsg>(id());
      for (ProcessId j : pd_) send(j, req);
    }
    return;
  }
  if (timer_id == kPbftTimerId && pbft_) pbft_->on_view_timer();
}

Value BftCupNode::decision() const {
  if (!decided_) throw std::logic_error("BftCupNode::decision: not decided");
  return *decided_;
}

}  // namespace scup::bftcup
