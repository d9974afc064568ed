#include "sinkdetector/sink_detector.hpp"

#include <stdexcept>

namespace scup::sinkdetector {

using cup::GetSinkMsg;
using cup::SinkValueMsg;

SinkDetector::SinkDetector(sim::ProtocolHost& host, NodeSet pd,
                           cup::DiscoveryConfig discovery_config)
    : host_(host),
      pd_(std::move(pd)),
      f_(host.fault_threshold()),
      discovery_(host, pd_, discovery_config),
      asked_(pd_.universe_size()),
      forwarded_for_(pd_.universe_size()),
      voted_(pd_.universe_size()) {
  discovery_.on_complete = [this] {
    // Direct path (Algorithm 3 lines 7-9): SINK returned ⟨true, V_sink⟩.
    if (!sink_) complete(discovery_.sink());
  };
}

void SinkDetector::start() {
  // Line 5: reachable_bcast(GET_SINK, i) — flood along knowledge edges.
  forwarded_for_.add(host_.self());
  const auto msg = sim::make_message<GetSinkMsg>(host_.self());
  for (ProcessId j : pd_) host_.host_send(j, msg);
  // Line 7: run SINK.
  discovery_.start();
}

bool SinkDetector::on_timer(int timer_id) {
  if (!discovery_.on_timer(timer_id)) return false;
  // Piggyback on the requery tick: without a result yet, our GET_SINK (or
  // a sink member's answer) may have been lost — re-flood it. Receivers
  // re-add the origin to `asked` and, once they hold the sink, re-answer.
  if (!result_) {
    const auto msg = sim::make_message<cup::GetSinkMsg>(host_.self());
    for (ProcessId j : pd_) host_.host_send(j, msg);
  }
  return true;
}

bool SinkDetector::handle(ProcessId from, const sim::Message& msg) {
  if (discovery_.handle(from, msg)) return true;

  if (const auto* get_sink = dynamic_cast<const GetSinkMsg*>(&msg)) {
    const ProcessId origin = get_sink->origin;
    if (origin >= host_.universe()) return true;  // malformed
    // Record the requester (upon reachable_deliver, line 17).
    if (origin != host_.self()) asked_.add(origin);
    // Flood forward once per origin (reachable-reliable broadcast).
    if (!forwarded_for_.contains(origin)) {
      forwarded_for_.add(origin);
      const auto fwd = sim::make_message<GetSinkMsg>(origin);
      for (ProcessId j : pd_) {
        if (j != from) host_.host_send(j, fwd);
      }
    }
    answer_pending_requests();
    return true;
  }

  if (const auto* value = dynamic_cast<const SinkValueMsg*>(&msg)) {
    if (value->sink.universe_size() != host_.universe()) return true;
    // Line 22: values ← values ∪ {V}, one vote per sender: its first
    // well-formed value counts and later ones are ignored. Correct sink
    // members always send the same V, so this only bounds what a
    // Byzantine sender naming ever-new values can make the table hold.
    if (voted_.contains(from)) return true;
    voted_.add(from);
    auto [it, _] =
        value_senders_.emplace(value->sink, NodeSet(host_.universe()));
    it->second.add(from);
    // Line 15-16: adopt a value repeated more than f times.
    if (!sink_ && it->second.count() > f_) complete(it->first);
    return true;
  }
  return false;
}

void SinkDetector::complete(NodeSet sink) {
  sink_ = std::move(sink);
  GetSinkResult r;
  r.is_sink_member = sink_->contains(host_.self());
  r.sink = *sink_;
  result_ = r;
  answer_pending_requests();
  if (on_result) on_result(*result_);
}

void SinkDetector::answer_pending_requests() {
  // Lines 18-21: send ⟨SINK, sink⟩ to every process that asked. Only sink
  // members answer — the oracle's guarantee for non-sink members rests on
  // the >f matching rule, and answers from non-sink members (which learned
  // the sink indirectly themselves) would be redundant.
  if (!sink_ || !sink_->contains(host_.self())) return;
  const auto msg = sim::make_message<SinkValueMsg>(*sink_);
  for (ProcessId j : asked_) {
    host_.host_send(j, msg);
    asked_.remove(j);
  }
}

const GetSinkResult& SinkDetector::result() const {
  if (!result_) throw std::logic_error("SinkDetector::result: not ready");
  return *result_;
}

}  // namespace scup::sinkdetector
