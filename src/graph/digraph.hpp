// Directed graph over process ids, used to model knowledge connectivity
// graphs (Definition 5 of the paper): vertex set = Π, edge (i, j) iff
// j ∈ PD_i ("i knows j").
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/node_set.hpp"
#include "common/types.hpp"

namespace scup::graph {

class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(std::size_t n);

  std::size_t node_count() const { return n_; }
  std::size_t edge_count() const { return edge_count_; }

  /// Adds edge u -> v. Self-loops are ignored; duplicate edges are ignored.
  void add_edge(ProcessId u, ProcessId v);
  /// Adds u -> v for every v in `targets` (same universe) that is not yet a
  /// successor of u, skipping u itself: the new successors are appended in
  /// id order, after one reserve, exactly as add_edge over `targets` in id
  /// order would append them.
  void add_edges(ProcessId u, const NodeSet& targets);
  bool has_edge(ProcessId u, ProcessId v) const;

  /// Successors in insertion order (DominatorTree walks prefixes of it).
  const std::vector<ProcessId>& successors(ProcessId u) const;
  /// Predecessors as one row over the universe, in id order.
  const NodeSet& predecessors(ProcessId u) const;

  NodeSet successor_set(ProcessId u) const;
  NodeSet predecessor_set(ProcessId u) const;

  std::size_t out_degree(ProcessId u) const { return successors(u).size(); }
  std::size_t in_degree(ProcessId u) const { return predecessors(u).count(); }

  /// Graph with all edges reversed.
  Digraph reversed() const;

  /// Symmetric closure: for every edge u->v adds v->u. This is the
  /// undirected graph G obtained from G_di in the paper.
  Digraph undirected_closure() const;

  /// Subgraph induced by `keep`: same vertex ids, but only edges with both
  /// endpoints in `keep`. Vertices outside `keep` become isolated. This
  /// implements "G_di \ F" from Definition 7 (with keep = Π \ F).
  Digraph induced_subgraph(const NodeSet& keep) const;

  /// Set of nodes reachable from `start` following directed edges,
  /// restricted to `active` nodes (start must be active; otherwise empty).
  NodeSet reachable_from(ProcessId start, const NodeSet& active) const;
  NodeSet reachable_from(ProcessId start) const;

  /// The participant-detector view: PD_i = successors of i as a NodeSet.
  NodeSet pd_of(ProcessId i) const { return successor_set(i); }

  std::string to_string() const;

 private:
  void check_node(ProcessId u) const;

  std::size_t n_ = 0;
  std::size_t edge_count_ = 0;
  std::vector<std::vector<ProcessId>> succ_;
  // Predecessor rows, which also answer has_edge: a NodeSet keeps up to
  // NodeSet::kInlineUniverse ids inside the object, so adding an edge
  // allocates nothing here.
  std::vector<NodeSet> pred_;
};

}  // namespace scup::graph
