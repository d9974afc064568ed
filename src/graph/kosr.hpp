// k-One Sink Reducibility (Definition 6) and the safe Byzantine failure
// pattern (Definition 7).
#pragma once

#include <cstddef>
#include <string>

#include "common/node_set.hpp"
#include "graph/digraph.hpp"

namespace scup::graph {

/// Detailed verdict of a k-OSR check, one flag per clause of Definition 6.
struct KosrReport {
  bool weakly_connected = false;       // (1) undirected graph is connected
  bool single_sink = false;            // (2) condensation has exactly one sink
  bool sink_k_connected = false;       // (3) sink is k-strongly connected
  bool paths_to_sink = false;          // (4) k disjoint paths non-sink -> sink
  NodeSet sink;                        // sink members (valid if single_sink)

  bool ok() const {
    return weakly_connected && single_sink && sink_k_connected && paths_to_sink;
  }
  std::string to_string() const;
};

/// Checks whether g restricted to `active` satisfies k-OSR.
///
/// Clause (3) runs at most 2·k·(|sink| - 1) max-flow queries (see
/// is_k_strongly_connected). Clause (4) runs at most k per non-sink node
/// when clause (3) holds, against the first k sink members only, and
/// |sink| per non-sink node when it fails; every flag is exact either way
/// (DESIGN.md §4.10).
KosrReport check_kosr(const Digraph& g, std::size_t k, const NodeSet& active);
KosrReport check_kosr(const Digraph& g, std::size_t k);

/// Definition 7: the safe Byzantine failure pattern holds for (g, F, f) iff
/// F ⊂ g's nodes, |F| <= f, and g \ F is (f+1)-OSR.
bool is_byzantine_safe(const Digraph& g, const NodeSet& faulty, std::size_t f);

/// Precondition of Theorem 1 (and of Theorem 5): g is Byzantine-safe for F
/// and the sink component of g (the full graph, faulty included) contains at
/// least 2f+1 correct processes.
bool satisfies_bft_cup_preconditions(const Digraph& g, const NodeSet& faulty,
                                     std::size_t f);

}  // namespace scup::graph
