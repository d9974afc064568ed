// Federated Byzantine Quorum System analysis.
//
// FbqsSystem holds one QSet per process — the same type SCP decides
// with — and implements:
//  - Algorithm 1 (is_quorum),
//  - greatest-fixpoint quorum closure, the reference Algorithm 1 that
//    QuorumEngine::quorum_contains and ScpNode's debug checks are held to,
//  - exhaustive quorum / minimal-quorum enumeration (small universes),
//  - the threshold-form intertwined test (|Q ∩ Q′| > f, Section III-F),
//  - consensus clusters (Definitions 2-4).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/node_set.hpp"
#include "fbqs/qset.hpp"

namespace scup::fbqs {

class FbqsSystem {
 public:
  explicit FbqsSystem(std::size_t n);

  std::size_t size() const { return n_; }

  void set_slices(ProcessId i, QSet slices);
  const QSet& slices_of(ProcessId i) const;
  bool has_slices(ProcessId i) const;

  /// Algorithm 1: Q is a quorum iff every member has a slice inside Q.
  /// Processes without slices defined count as unsatisfied (they cannot
  /// justify membership). The empty set is vacuously a quorum; callers that
  /// need non-triviality should test emptiness. Throws
  /// std::invalid_argument when Q's universe is not n, as quorum_closure
  /// does.
  bool is_quorum(const NodeSet& q) const;

  /// Q is a quorum *for i*: i ∈ Q, Q is a quorum (Definition 1 and the text
  /// after it). Throws as is_quorum does.
  bool is_quorum_for(ProcessId i, const NodeSet& q) const;

  /// Greatest quorum contained in `candidate`: repeatedly removes members
  /// whose slices are not satisfied. Returns the (possibly empty) fixpoint.
  NodeSet quorum_closure(NodeSet candidate) const;

  /// Smallest-effort search for a quorum for i inside `within`: the closure
  /// of `within`, provided it still contains i. nullopt otherwise.
  std::optional<NodeSet> find_quorum_for(ProcessId i, const NodeSet& within) const;

  /// Exhaustive enumeration of all non-empty quorums. Guarded: throws if
  /// n > max_universe (default 20) to prevent accidental 2^n blowups.
  std::vector<NodeSet> all_quorums(std::size_t max_universe = 20) const;

  /// Inclusion-minimal quorums for process i (minimal among quorums
  /// containing i). Same guard as all_quorums.
  std::vector<NodeSet> minimal_quorums_for(ProcessId i,
                                           std::size_t max_universe = 20) const;

  /// Threshold-form intertwined test for two processes (Section III-F):
  /// every quorum of i and every quorum of j intersect in more than f
  /// processes. Exhaustive over minimal quorums (intersection size is
  /// monotone under quorum inclusion, so minimal quorums suffice).
  bool intertwined(ProcessId i, ProcessId j, std::size_t f,
                   std::size_t max_universe = 20) const;

  /// Checks that every pair of processes in `group` is intertwined
  /// (including each member with itself — two quorums of one process must
  /// also intersect in more than f), and returns the smallest pairwise
  /// quorum intersection observed so callers can report the margin.
  /// Returns false via .ok when some pair violates, or when some member has
  /// no quorum at all (then min_intersection is 0 and worst_i == worst_j
  /// names that member). An empty group examines no pairs and is vacuously
  /// ok with min_intersection == 0 and worst_i/worst_j == kInvalidProcess;
  /// a singleton group examines exactly its self-pairs. min_intersection is
  /// always either 0 (no pairs) or a realized intersection size — never an
  /// out-of-band sentinel.
  struct IntertwinedReport {
    bool ok = false;
    std::size_t min_intersection = 0;  // over all quorum pairs examined
    ProcessId worst_i = kInvalidProcess;
    ProcessId worst_j = kInvalidProcess;
    std::size_t pairs_examined = 0;  // quorum pairs compared (0 for an empty
                                     // group or a quorum-less-member return)
  };
  IntertwinedReport check_intertwined(const NodeSet& group, std::size_t f,
                                      std::size_t max_universe = 20) const;

  /// Definition 3 (threshold form): I is a consensus cluster for correct set
  /// W and threshold f iff I ⊆ W, every two members are intertwined, and
  /// every member has a quorum inside I.
  bool is_consensus_cluster(const NodeSet& I, const NodeSet& W,
                            std::size_t f) const;

  /// Searches for the unique maximal consensus cluster by checking whether W
  /// itself is a cluster first (the paper's success condition C = W), then
  /// greedily shrinking. Exhaustive for small n via all_quorums; returns
  /// nullopt if no non-empty cluster exists.
  std::optional<NodeSet> maximal_consensus_cluster(const NodeSet& W,
                                                   std::size_t f) const;

 private:
  /// Throws std::invalid_argument unless `s` is over this system's n ids.
  void require_universe(const NodeSet& s, const char* caller) const;

  std::size_t n_;
  std::vector<QSet> slices_;
  std::vector<bool> has_slices_;
};

}  // namespace scup::fbqs
