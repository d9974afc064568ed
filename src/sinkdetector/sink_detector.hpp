// The Sink Detector oracle (Definition 8), implemented as Algorithm 3:
//
//  - direct discovery: run the SINK algorithm (cup::SinkDiscovery); sink
//    members terminate it with ⟨true, V_sink⟩ (Lemma 6);
//  - indirect discovery: flood ⟨GET_SINK, i⟩ over the knowledge edges
//    (reachable-reliable broadcast); sink members that have finished SINK
//    answer every requester in `asked` with ⟨SINK, V_sink⟩; a requester
//    adopts a value repeated by more than f distinct senders.
//
// get_sink's result is ⟨true, V⟩ for sink members and ⟨false, V⟩ for
// non-sink members, where V contains at least f+1 correct sink members
// (here: all of V_sink).
#pragma once

#include <functional>
#include <map>
#include <optional>

#include "common/node_set.hpp"
#include "cup/messages.hpp"
#include "cup/sink_discovery.hpp"
#include "sim/host.hpp"

namespace scup::sinkdetector {

struct GetSinkResult {
  bool is_sink_member = false;
  NodeSet sink;
};

class SinkDetector {
 public:
  SinkDetector(sim::ProtocolHost& host, NodeSet pd,
               cup::DiscoveryConfig discovery_config = {});

  /// Starts Algorithm 3: broadcasts GET_SINK (line 5) and launches the SINK
  /// algorithm (line 7).
  void start();

  /// Feeds a received message; returns true if consumed by this layer.
  bool handle(ProcessId from, const sim::Message& msg);

  /// Feeds a timer firing; returns true if consumed (the discovery requery
  /// timer). On a requery tick a requester without a result also re-floods
  /// its GET_SINK — receivers re-add the origin to `asked` and re-answer,
  /// which recovers lost ⟨SINK, V⟩ replies under pre-GST message loss.
  bool on_timer(int timer_id);

  /// Stops the requery retransmissions for good. Nodes call this once they
  /// have decided (the sink result alone is not enough: e.g. a BFT-CUP
  /// non-sink member still relies on the tick to re-flood its decision
  /// request while answers can be lost).
  void stop_requery() { discovery_.stop_requery(); }

  bool has_result() const { return result_.has_value(); }
  const GetSinkResult& result() const;

  /// Invoked exactly once when the result becomes available.
  std::function<void(const GetSinkResult&)> on_result;

  /// Message counts of the underlying discovery, for experiments.
  const cup::SinkDiscovery& discovery() const { return discovery_; }

  /// Distinct ⟨SINK, V⟩ values voted for so far (at most one per sender),
  /// for tests.
  std::size_t vote_values() const { return value_senders_.size(); }

 private:
  void complete(NodeSet sink);
  void answer_pending_requests();

  sim::ProtocolHost& host_;
  NodeSet pd_;
  std::size_t f_;
  cup::SinkDiscovery discovery_;

  NodeSet asked_;          // processes that asked us for the sink (line 2)
  NodeSet forwarded_for_;  // GET_SINK origins already flooded (dedup)
  std::map<NodeSet, NodeSet> value_senders_;  // value -> senders (line 3)
  NodeSet voted_;                             // senders already counted
  std::optional<NodeSet> sink_;               // line 1
  std::optional<GetSinkResult> result_;
};

}  // namespace scup::sinkdetector
