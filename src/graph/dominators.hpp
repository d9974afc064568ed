// Immediate dominators (Cooper-Harvey-Kennedy iterative algorithm).
//
// Dominators are the single-source structural complement to the SCC /
// condensation machinery: vertex v dominates j (w.r.t. a root r) iff every
// r→j path passes through v. By Menger, a non-adjacent j has >= 2
// internally-vertex-disjoint paths from r exactly when it has no proper
// dominator other than r — i.e. idom(j) == r. One O(V+E)-ish pass therefore
// answers 2-vertex-connectivity from r to EVERY node at once, which is what
// lets f = 1 sink discovery decide whole batches without per-node max-flow
// runs.
#pragma once

#include <vector>

#include "common/node_set.hpp"
#include "graph/digraph.hpp"

namespace scup::graph {

/// Immediate dominator of every node w.r.t. `root`, over g restricted to
/// `active`. idom[root] == root; nodes unreachable from root (or outside
/// `active`) get kInvalidProcess. Iterative RPO dataflow (CHK); worst-case
/// O(V·E) but converges in 2-3 passes on real graphs.
std::vector<ProcessId> immediate_dominators(const Digraph& g, ProcessId root,
                                            const NodeSet& active);

}  // namespace scup::graph
