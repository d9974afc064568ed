#include "sinkdetector/sink_detector.hpp"

#include <stdexcept>

namespace scup::sinkdetector {

using cup::GetSinkMsg;
using cup::SinkValueMsg;

SinkDetector::SinkDetector(sim::ProtocolHost& host, NodeSet pd,
                           cup::DiscoveryConfig discovery_config)
    : host_(host),
      discovery_(host, pd, discovery_config),
      query_(host, std::move(pd)) {
  discovery_.on_complete = [this] {
    // Direct path (Algorithm 3 lines 7-9): SINK returned ⟨true, V_sink⟩.
    if (!result_) complete(discovery_.sink());
  };
}

void SinkDetector::start() {
  // Line 5: reachable_bcast(GET_SINK, i) — flood along knowledge edges.
  query_.ask();
  // Line 7: run SINK.
  discovery_.start();
}

bool SinkDetector::on_timer(int timer_id) {
  if (!discovery_.on_timer(timer_id)) return false;
  // Piggyback on the requery tick: without a result yet, our GET_SINK (or
  // a sink member's answer) may have been lost — re-flood it. With a
  // result, re-flooding is the owner's call (BFT-CUP's dissemination).
  if (!result_) query_.ask();
  return true;
}

bool SinkDetector::handle(ProcessId from, const sim::Message& msg) {
  if (discovery_.handle(from, msg)) return true;

  if (const auto* get_sink = sim::message_as<GetSinkMsg>(&msg)) {
    query_.on_request(from, get_sink->origin);
    return true;
  }

  if (const auto* value = sim::message_as<SinkValueMsg>(&msg)) {
    if (value->sink.universe_size() != host_.universe()) return true;
    // Lines 15-16 and 22: adopt a value repeated by more than f senders.
    // Correct sink members always send the same V, so one vote per sender
    // only bounds what a Byzantine sender naming ever-new values can make
    // the tally hold.
    const NodeSet* sink = query_.on_answer(from, value->sink);
    if (sink && !result_) complete(*sink);
    return true;
  }
  return false;
}

void SinkDetector::complete(NodeSet sink) {
  result_ = GetSinkResult{sink.contains(host_.self()), std::move(sink)};
  // Lines 18-21: only sink members answer. The oracle's guarantee for
  // non-sink members rests on the >f matching rule, so answers from
  // non-sink members (which learned the sink indirectly) would be
  // redundant.
  if (result_->is_sink_member) query_.answer(result_->sink);
  if (on_result) on_result(*result_);
}

const GetSinkResult& SinkDetector::result() const {
  if (!result_) throw std::logic_error("SinkDetector::result: not ready");
  return *result_;
}

}  // namespace scup::sinkdetector
