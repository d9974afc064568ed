// Vertex-disjoint path counting via max-flow (Menger's theorem).
//
// k-OSR (Definition 6) and f-reachability (Definition 9) are both stated in
// terms of node-disjoint paths. We count internally-vertex-disjoint paths
// from u to v with the standard vertex-splitting reduction (each vertex w
// becomes w_in -> w_out with capacity 1, except the endpoints) and Dinic's
// algorithm on unit-capacity networks.
#pragma once

#include <cstddef>
#include <vector>

#include "common/node_set.hpp"
#include "graph/digraph.hpp"

namespace scup::graph {

/// Batch interface for many disjoint-path queries against one (graph,
/// active-set) pair. prepare() builds the vertex-split flow network once;
/// each query then only restores the pristine capacities (one vector copy)
/// instead of re-walking the graph and re-allocating adjacency storage. All
/// scratch buffers (level/iterator/queue arrays) are reused across queries
/// and across prepare() calls, so a long-lived engine performs no
/// steady-state allocation.
///
/// SinkDiscovery keeps one engine per process and re-prepares it only when
/// its certified graph gains edges; the free functions below build a
/// throwaway engine for one-off queries.
class DisjointPathEngine {
 public:
  /// (Re)builds the flow network for g restricted to `active`. Must be
  /// called before queries and after any change to g or `active`.
  void prepare(const Digraph& g, const NodeSet& active);

  /// Maximum number of internally-vertex-disjoint paths u -> v on the
  /// prepared network, early-exiting once `limit` augmenting paths are
  /// found. Returns 0 when u or v is outside the prepared active set.
  /// Requires u != v (throws std::invalid_argument otherwise).
  std::size_t max_disjoint_paths(ProcessId u, ProcessId v, std::size_t limit);

  /// True iff there are at least k internally-vertex-disjoint paths u -> v.
  bool has_k_paths(ProcessId u, ProcessId v, std::size_t k);

  /// A Menger certificate for a *failed* has_k_paths query: every u → v
  /// path either leaves `source_side` over an edge into `cut` (at most
  /// flow-many vertices) or is the direct edge u → v. The verdict "fewer
  /// than k disjoint paths" therefore stays valid in any supergraph until
  /// an edge appears from `source_side` to a node outside
  /// `source_side` ∪ `cut` — the cheap invalidation test incremental
  /// callers run per new edge instead of re-running the max-flow.
  struct VertexCut {
    NodeSet source_side;  // residual-reachable side, includes u
    NodeSet cut;          // covering separator vertices, |cut| <= flow
  };

  /// Extracts the certificate for the immediately preceding
  /// max_disjoint_paths/has_k_paths call on (u, v). Only meaningful when
  /// that call found fewer paths than its limit (the Dinic run ended with
  /// no augmenting path); calling it after a limit-hit query yields a
  /// frontier that proves nothing.
  VertexCut extract_cut(ProcessId u, ProcessId v);

 private:
  struct Arc {
    int to;
    int next;
  };

  bool bfs(int s, int t);
  int dfs(int u, int t, int pushed);

  // Static network topology, rebuilt by prepare().
  std::vector<Arc> arcs_;
  std::vector<int> base_cap_;   // pristine capacities (endpoint caps are 1)
  std::vector<int> head_;       // per flow-node adjacency heads
  std::vector<int> split_arc_;  // graph node w -> arc index of w_in -> w_out
  // Per-query scratch.
  std::vector<int> cap_;
  std::vector<int> level_;
  std::vector<int> iter_;
  std::vector<int> queue_;

  NodeSet active_;
  std::size_t n_ = 0;
  int big_ = 0;
  bool prepared_ = false;
};

/// Maximum number of internally-vertex-disjoint directed paths from u to v
/// in g restricted to `active` nodes. Returns 0 if u or v is inactive;
/// throws if u == v. If edge u->v exists it counts as one path.
std::size_t max_vertex_disjoint_paths(const Digraph& g, ProcessId u,
                                      ProcessId v, const NodeSet& active);
std::size_t max_vertex_disjoint_paths(const Digraph& g, ProcessId u,
                                      ProcessId v);

/// True iff there are at least k internally-vertex-disjoint paths from u to
/// v. Early-exits once k augmenting paths are found, so it is cheaper than
/// computing the exact maximum when only the threshold matters.
bool has_k_vertex_disjoint_paths(const Digraph& g, ProcessId u, ProcessId v,
                                 std::size_t k, const NodeSet& active);

/// True iff g restricted to `active` is k-strongly connected: every ordered
/// pair of distinct active nodes is joined by >= k vertex-disjoint paths
/// (footnote 1 of the paper; a direct edge counts as one path).
///
/// Runs at most 2·k·(|active| - 1) max-flow queries on one prepared network,
/// not one per ordered pair: only pairs with one of the first min(k,
/// |active|) active nodes as an endpoint are checked, which decides the
/// all-pairs definition exactly (Even's reduction, DESIGN.md §4.10).
bool is_k_strongly_connected(const Digraph& g, std::size_t k,
                             const NodeSet& active);
bool is_k_strongly_connected(const Digraph& g, std::size_t k);

/// f-reachability (Definition 9): j is f-reachable from i if there are at
/// least f+1 vertex-disjoint paths from i to j consisting only of correct
/// processes (i.e. in the subgraph induced by `correct`).
bool is_f_reachable(const Digraph& g, ProcessId i, ProcessId j, std::size_t f,
                    const NodeSet& correct);

}  // namespace scup::graph
