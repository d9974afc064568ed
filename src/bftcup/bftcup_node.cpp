#include "bftcup/bftcup_node.hpp"

#include <stdexcept>

namespace scup::bftcup {

BftCupNode::BftCupNode(NodeSet pd, std::size_t f, Value value,
                       PbftConfig pbft, cup::DiscoveryConfig discovery)
    : ComposedNode(f),
      value_(value),
      pbft_config_(pbft),
      detector_(*this, pd, discovery),
      dissemination_(*this, std::move(pd)) {
  detector_.on_result = [this](const sinkdetector::GetSinkResult& r) {
    on_sink(r);
  };
}

void BftCupNode::start() { detector_.start(); }

void BftCupNode::on_sink(const sinkdetector::GetSinkResult& result) {
  sd_time_ = now();
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
  // Decided: nothing left to retransmit for (GET_SINK deliveries are still
  // answered from on_message).
  detector_.stop_requery();
  dissemination_.answer(v);
}

void BftCupNode::on_message(ProcessId from, const sim::MessagePtr& msg) {
  if (const auto* get_sink = sim::message_as<cup::GetSinkMsg>(msg.get())) {
    // The detector forwards the request and answers it with the sink if it
    // can; `origin` asks for our decision too.
    detector_.handle(from, *msg);
    dissemination_.record(get_sink->origin);
    return;
  }
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

  if (const auto* dec = sim::message_as<DecisionMsg>(msg.get())) {
    // Accept a value vouched for by more than f distinct senders that are,
    // to the best of our knowledge, sink members. Before the sink detector
    // returns we cannot filter by membership; counting distinct senders is
    // still safe because at most f are faulty and correct sink members all
    // vouch for the same (agreed) value. One vote per sender, as the sink
    // detector counts ⟨SINK, V⟩: its first DecisionMsg counts and later
    // ones are ignored, so a Byzantine sender can neither vouch for two
    // values nor grow the table by one entry per value it names.
    if (const Value* v = dissemination_.on_answer(from, dec->value)) {
      decide(*v);
    }
    return;
  }
}

void BftCupNode::on_timer(int timer_id) {
  if (detector_.on_timer(timer_id)) {
    // Requery tick: the detector re-floods GET_SINK until it has a result.
    // After that our GET_SINK (or the decisions answering it) may still
    // have been lost pre-GST, so re-flood it until a decision arrives.
    // Receivers record us again and re-answer once decided.
    if (!decided_ && detector_.has_result()) dissemination_.ask();
    return;
  }
  if (timer_id == kPbftTimerId && pbft_) pbft_->on_view_timer();
}

Value BftCupNode::decision() const {
  if (!decided_) throw std::logic_error("BftCupNode::decision: not decided");
  return *decided_;
}

}  // namespace scup::bftcup
