// FloodQuery: Algorithm 3's flood-and-vote. The sink detector floods
// ⟨GET_SINK, i⟩ and answers it with ⟨SINK, V⟩; BFT-CUP answers the same
// flood with its decided value through a second FloodQuery that only
// records the origins the detector forwards. A request is flooded along the
// knowledge edges, forwarded once per origin (reachable_bcast, line 5);
// once the answer is known, every origin that asked gets it, once per
// request delivery (lines 18-21); a requester adopts a value named by more
// than f distinct senders, one vote per sender (lines 15-16, 22). The
// owner decides who answers and what an adopted value means.
#pragma once

#include <map>
#include <optional>
#include <utility>

#include "common/node_set.hpp"
#include "sim/host.hpp"

namespace scup::sinkdetector {

/// Request is built from an origin ProcessId, Answer from a Value.
template <typename Request, typename Answer, typename Value>
class FloodQuery {
 public:
  FloodQuery(sim::ProtocolHost& host, NodeSet pd)
      : host_(host),
        pd_(std::move(pd)),
        pending_(pd_.universe_size()),
        forwarded_(pd_.universe_size()),
        voted_(pd_.universe_size()) {}

  /// Floods our own request to PD; called again on a requery tick.
  void ask() {
    forwarded_.add(host_.self());
    flood(host_.self(), kInvalidProcess);
  }

  /// `from` delivered a request for `origin` (line 17).
  void on_request(ProcessId from, ProcessId origin) {
    if (origin >= host_.universe()) return;  // malformed
    if (!forwarded_.contains(origin)) {
      forwarded_.add(origin);
      flood(origin, from);
    }
    record(origin);
  }

  /// Records a delivered request for `origin` without forwarding it (the
  /// FloodQuery that received it forwards it); answers it if it can.
  void record(ProcessId origin) {
    if (origin >= host_.universe() || origin == host_.self()) return;
    pending_.add(origin);
    flush();
  }

  /// Answers every pending and later requester.
  void answer(Value value) {
    answer_ = std::move(value);
    flush();
  }

  /// Counts `from`'s first answer only, so a Byzantine sender naming
  /// ever-new values cannot grow the tally. Returns the value at the vote
  /// that gives it f+1 distinct senders, else null.
  const Value* on_answer(ProcessId from, const Value& value) {
    if (voted_.contains(from)) return nullptr;
    voted_.add(from);
    auto [it, _] = votes_.emplace(value, NodeSet(host_.universe()));
    it->second.add(from);
    return it->second.count() == host_.fault_threshold() + 1 ? &it->first
                                                             : nullptr;
  }

  /// Distinct values voted for so far.
  std::size_t vote_values() const { return votes_.size(); }

 private:
  void flood(ProcessId origin, ProcessId skip) {
    const auto msg = sim::make_message<Request>(origin);
    for (ProcessId j : pd_) {
      if (j != skip) host_.host_send(j, msg);
    }
  }

  void flush() {
    if (!answer_ || pending_.empty()) return;
    const auto msg = sim::make_message<Answer>(*answer_);
    for (ProcessId j : pending_) host_.host_send(j, msg);
    pending_.clear();
  }

  sim::ProtocolHost& host_;
  NodeSet pd_;
  NodeSet pending_;    // requesters not yet answered (line 2)
  NodeSet forwarded_;  // origins already flooded
  std::optional<Value> answer_;
  std::map<Value, NodeSet> votes_;  // value -> distinct senders (line 3)
  NodeSet voted_;                   // senders already counted
};

}  // namespace scup::sinkdetector
