// Dominators: immediate dominators from scratch (Cooper-Harvey-Kennedy)
// and a dominator tree kept under edge insertion.
//
// Dominators are the single-source structural complement to the SCC /
// condensation machinery: vertex v dominates j (w.r.t. a root r) iff every
// r→j path passes through v. By Menger, a non-adjacent j has >= 2
// internally-vertex-disjoint paths from r exactly when it has no proper
// dominator other than r — i.e. idom(j) == r. One dominator tree therefore
// answers 2-vertex-connectivity from r to EVERY node at once, which is what
// lets f = 1 sink discovery decide whole batches without per-node max-flow
// runs.
//
// Sink discovery's certified graph only gains edges, so it keeps a
// DominatorTree and hands it each new edge instead of rebuilding the tree;
// immediate_dominators() is the from-scratch oracle the tests compare the
// tree against after every insertion (DESIGN.md §4.11).
#pragma once

#include <cstdint>
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

/// The dominator tree, rooted at `root`, of a graph that only gains edges,
/// kept edge by edge by depth-based search (Georgiadis, Italiano, Laura and
/// Santaroni, "An Experimental Study of Dynamic Dominators", ESA 2012).
///
/// Invariant: the tree is the dominator tree of exactly the edges it has
/// taken up, and every search walks only those edges: for each node, a
/// prefix of g.successors(node), whose length the tree keeps.
///  - An edge out of a node outside the tree waits until its tail joins.
///  - An edge into a node outside the tree attaches that node under the
///    edge's tail (its only taken in-edge); the new node's out-edges are
///    then taken up one at a time, and each further new node the same way.
///  - An edge (x, y) between tree nodes changes the tree only if the
///    nearest common ancestor of x and y is neither y nor idom(y). The
///    nodes it affects are those reachable from y through nodes at least
///    as deep as themselves and deeper than depth(nca) + 1; each gets
///    idom = nca, and the depths of their subtrees are refreshed.
/// Taking a whole newly reachable component up at once, as a DFS tree
/// whose other edges are then inserted while searches walk every
/// successor, breaks the invariant and gives wrong trees.
///
/// Memory is O(node_count), allocated at construction; insertions allocate
/// nothing.
class DominatorTree {
 public:
  /// A placeholder over no nodes; assign a constructed tree before use.
  DominatorTree() = default;
  /// A tree over ids below `node_count` that holds only `root`.
  DominatorTree(std::size_t node_count, ProcessId root);

  /// Takes up the out-edges `g` gained at `tail` since the last call, one
  /// at a time, with everything they make reachable. Call after adding
  /// edges out of `tail`; a no-op while `tail` is outside the tree.
  void insert(const Digraph& g, ProcessId tail);

  /// True iff v is reachable from the root over the edges taken up.
  bool contains(ProcessId v) const { return idom(v) != kInvalidProcess; }
  /// Immediate dominator of v; the root's is itself, and a node outside
  /// the tree (or past its ids) has kInvalidProcess.
  ProcessId idom(ProcessId v) const {
    if (v >= idom_.size()) return kInvalidProcess;
    return idom_[v];
  }

 private:
  /// Puts v, outside the tree, under `parent`.
  void attach(ProcessId v, ProcessId parent);
  /// Applies the taken edge (x, y) between two tree nodes.
  void insert_between(const Digraph& g, ProcessId x, ProcessId y);
  ProcessId nearest_common_ancestor(ProcessId a, ProcessId b) const;
  void link(ProcessId v, ProcessId parent);
  void unlink(ProcessId v);
  void push_bucket(ProcessId v);

  std::vector<ProcessId> idom_;
  std::vector<std::uint32_t> depth_;
  std::vector<std::uint32_t> taken_;  // prefix of successors() taken up
  // Children as intrusive doubly linked lists, for subtree depth refresh.
  std::vector<ProcessId> first_child_;
  std::vector<ProcessId> next_sibling_;
  std::vector<ProcessId> prev_sibling_;
  // Search scratch: visit stamps (64-bit, so they never wrap), depth
  // buckets as intrusive lists, and the work stacks.
  std::vector<std::uint64_t> visited_;
  std::uint64_t stamp_ = 0;
  std::vector<ProcessId> bucket_head_;
  std::vector<ProcessId> bucket_next_;
  std::vector<ProcessId> stack_;
  std::vector<ProcessId> affected_;
  std::vector<ProcessId> pending_;  // tree nodes with edges to take up
};

}  // namespace scup::graph
