// graph/dominators: immediate dominators and their Menger reading (for a
// non-adjacent target j, idom(j) == root ⟺ two internally-vertex-disjoint
// root→j paths), cross-checked against the max-flow oracle; and the
// DominatorTree kept under edge insertion, checked against the
// from-scratch immediate_dominators after every single insertion.
#include "graph/dominators.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/disjoint_paths.hpp"
#include "graph/generators.hpp"

namespace scup::graph {
namespace {

using Edge = std::pair<ProcessId, ProcessId>;

std::vector<Edge> edges_of(const Digraph& g) {
  std::vector<Edge> edges;
  for (ProcessId u = 0; u < g.node_count(); ++u) {
    for (ProcessId v : g.successors(u)) edges.emplace_back(u, v);
  }
  return edges;
}

/// `edges` in random order, except that the edges entering `late` from
/// outside it come last. Until the first of them, nothing reaches `late`
/// while its own edges pile up; that edge then makes all of `late`
/// reachable at once.
std::vector<Edge> late_component_order(std::vector<Edge> edges,
                                       const NodeSet& late, Rng& rng) {
  std::vector<Edge> early;
  std::vector<Edge> entering;
  for (const Edge& e : edges) {
    const bool enters = !late.contains(e.first) && late.contains(e.second);
    (enters ? entering : early).push_back(e);
  }
  rng.shuffle(early);
  rng.shuffle(entering);
  early.insert(early.end(), entering.begin(), entering.end());
  return early;
}

/// Inserts `edges` one at a time into an empty graph over `n` nodes and a
/// DominatorTree rooted at `root`, and compares the tree with
/// immediate_dominators after every insertion. Stops at the first
/// difference, reported as a test failure naming `what`.
bool tree_tracks_oracle(std::size_t n, ProcessId root,
                        const std::vector<Edge>& edges,
                        const std::string& what) {
  Digraph g(n);
  DominatorTree tree(n, root);
  const NodeSet all = NodeSet::full(n);
  for (std::size_t step = 0; step < edges.size(); ++step) {
    const auto [tail, head] = edges[step];
    g.add_edge(tail, head);
    tree.insert(g, tail);
    const std::vector<ProcessId> idom = immediate_dominators(g, root, all);
    for (ProcessId v = 0; v < n; ++v) {
      const bool reachable = idom[v] != kInvalidProcess;
      if (tree.idom(v) != idom[v] || tree.contains(v) != reachable) {
        ADD_FAILURE() << what << " step=" << step << " edge=" << tail << "->"
                      << head << " node=" << v << " tree=" << tree.idom(v)
                      << " oracle=" << idom[v];
        return false;
      }
    }
  }
  return true;
}

TEST(DominatorsTest, DiamondAndChain) {
  //     0 -> 1 -> 3 -> 4
  //     0 -> 2 -> 3
  Digraph g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  const auto idom = immediate_dominators(g, 0, NodeSet::full(5));
  EXPECT_EQ(idom[0], 0u);
  EXPECT_EQ(idom[1], 0u);
  EXPECT_EQ(idom[2], 0u);
  EXPECT_EQ(idom[3], 0u);  // two disjoint paths join here
  EXPECT_EQ(idom[4], 3u);  // everything to 4 goes through 3
}

TEST(DominatorsTest, UnreachableAndInactiveNodesHaveNoDominator) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const auto idom = immediate_dominators(g, 0, NodeSet(4, {0, 1, 2}));
  EXPECT_EQ(idom[1], 0u);
  EXPECT_EQ(idom[2], kInvalidProcess);  // reachable? no — 2 has no in-path
  EXPECT_EQ(idom[3], kInvalidProcess);  // inactive
}

TEST(DominatorsTest, DominatedBySubtrees) {
  // The idom array encodes the dominator tree: walking idom from any node
  // up to the root lists exactly the nodes that dominate it, so the
  // subtree a node dominates is every node whose chain passes through it.
  Digraph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 4);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  const auto idom = immediate_dominators(g, 0, NodeSet::full(6));
  const auto chain = [&idom](ProcessId u) {
    std::vector<ProcessId> up{u};
    while (up.back() != 0) up.push_back(idom[up.back()]);
    return up;
  };
  // 1 dominates everything below it; 4 dominates only itself and 5.
  EXPECT_EQ(chain(5), (std::vector<ProcessId>{5, 4, 1, 0}));
  EXPECT_EQ(chain(4), (std::vector<ProcessId>{4, 1, 0}));
  EXPECT_EQ(chain(3), (std::vector<ProcessId>{3, 1, 0}));
  EXPECT_EQ(chain(2), (std::vector<ProcessId>{2, 1, 0}));
  EXPECT_EQ(chain(0), (std::vector<ProcessId>{0}));
}

TEST(DominatorsTest, MengerAgreementOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto g = random_digraph(14, 0.18, seed);
    const NodeSet active = NodeSet::full(14);
    const ProcessId root = 0;
    const auto idom = immediate_dominators(g, root, active);
    const NodeSet reachable = g.reachable_from(root, active);
    for (ProcessId j = 1; j < 14; ++j) {
      if (!reachable.contains(j) || g.has_edge(root, j)) continue;
      const bool two_paths =
          has_k_vertex_disjoint_paths(g, root, j, 2, active);
      EXPECT_EQ(idom[j] == root, two_paths)
          << "seed=" << seed << " j=" << j << " idom=" << idom[j];
    }
  }
}

TEST(DominatorsTest, AgreementRestrictedToActiveSubset) {
  for (std::uint64_t seed = 40; seed <= 50; ++seed) {
    const auto g = random_digraph(12, 0.25, seed);
    NodeSet active = NodeSet::full(12);
    active.remove(static_cast<ProcessId>(seed % 11 + 1));  // drop one node
    const ProcessId root = 0;
    const auto idom = immediate_dominators(g, root, active);
    const NodeSet reachable = g.reachable_from(root, active);
    for (ProcessId j = 1; j < 12; ++j) {
      if (!reachable.contains(j) || g.has_edge(root, j)) continue;
      EXPECT_EQ(idom[j] == root,
                has_k_vertex_disjoint_paths(g, root, j, 2, active))
          << "seed=" << seed << " j=" << j;
    }
  }
}

TEST(DominatorTreeTest, ChainShortcutReparentsTheWholeChainTail) {
  // 0 -> 1 -> 2 -> 3 -> 4, then 0 -> 3: 3 and 4 move under 0 and 3
  // respectively, so 3's depth falls from 3 to 1 and 4's from 4 to 2.
  Digraph g(5);
  DominatorTree tree(5, 0);
  for (ProcessId v = 1; v < 5; ++v) {
    g.add_edge(v - 1, v);
    tree.insert(g, v - 1);
  }
  EXPECT_EQ(tree.idom(4), 3u);
  EXPECT_EQ(tree.idom(3), 2u);
  g.add_edge(0, 3);
  tree.insert(g, 0);
  EXPECT_EQ(tree.idom(3), 0u);
  EXPECT_EQ(tree.idom(4), 3u);
  EXPECT_EQ(tree.idom(2), 1u);
  // A second shortcut below the first one must see the refreshed depths.
  g.add_edge(1, 4);
  tree.insert(g, 1);
  EXPECT_EQ(tree.idom(4), 0u);
}

TEST(DominatorTreeTest, EdgesWaitUntilTheirTailIsReachable) {
  Digraph g(4);
  DominatorTree tree(4, 0);
  g.add_edge(2, 3);
  tree.insert(g, 2);
  EXPECT_FALSE(tree.contains(2));
  EXPECT_FALSE(tree.contains(3));
  EXPECT_EQ(tree.idom(3), kInvalidProcess);
  g.add_edge(0, 2);
  tree.insert(g, 0);
  EXPECT_EQ(tree.idom(2), 0u);
  EXPECT_EQ(tree.idom(3), 2u);  // 2 -> 3 was taken up when 2 joined
  EXPECT_FALSE(tree.contains(1));
}

TEST(DominatorTreeTest, RandomInsertionOrdersMatchTheOracle) {
  // Random digraphs at n = 8..64, inserted edge by edge in random order and
  // in orders that keep a random node set unreachable until one edge makes
  // all of it reachable at once. 1,000 of the sequences run at n = 64 with
  // edge probability 0.06, where a tree that takes up a newly reachable
  // component by a DFS and then searches over every successor goes wrong.
  Rng rng(0xd0d0);
  struct Shape {
    std::size_t n;
    double p;
    int sequences;
  };
  const Shape shapes[] = {{8, 0.3, 300}, {14, 0.18, 300}, {32, 0.1, 200},
                          {64, 0.06, 1000}};
  std::uint64_t seed = 1;
  for (const Shape& shape : shapes) {
    for (int sequence = 0; sequence < shape.sequences; ++sequence, ++seed) {
      const Digraph g = random_digraph(shape.n, shape.p, seed);
      std::vector<Edge> edges = edges_of(g);
      const bool late = sequence % 2 == 1;
      if (late) {
        NodeSet component(shape.n);
        for (ProcessId v = 1; v < shape.n; ++v) {
          if (rng.chance(0.5)) component.add(v);
        }
        edges = late_component_order(std::move(edges), component, rng);
      } else {
        rng.shuffle(edges);
      }
      ASSERT_TRUE(tree_tracks_oracle(
          shape.n, 0, edges,
          "n=" + std::to_string(shape.n) + " seed=" + std::to_string(seed) +
              (late ? " late" : "")));
    }
  }
}

TEST(DominatorTreeTest, KosrGraphsMatchTheOracle) {
  // Rooted at a sink member and at a non-sink node, as sink discovery sees
  // them; the certificate order is random, per owner or per edge.
  Rng rng(77);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    KosrGenParams params;
    params.sink_size = 8 + seed % 9;
    params.non_sink_size = 8 + seed % 7;
    params.k = 3;
    params.seed = seed;
    const Digraph g = random_kosr_graph(params);
    const std::size_t n = g.node_count();
    std::vector<Edge> edges = edges_of(g);
    if (seed % 2 == 0) {
      rng.shuffle(edges);
    } else {
      // Whole certificates at a time, owners in random order.
      std::vector<ProcessId> owners(n);
      for (ProcessId v = 0; v < n; ++v) owners[v] = v;
      rng.shuffle(owners);
      edges.clear();
      for (ProcessId owner : owners) {
        for (ProcessId v : g.successors(owner)) edges.emplace_back(owner, v);
      }
    }
    for (const ProcessId root : {ProcessId{0}, static_cast<ProcessId>(n - 1)}) {
      ASSERT_TRUE(tree_tracks_oracle(n, root, edges,
                                     "kosr seed=" + std::to_string(seed) +
                                         " root=" + std::to_string(root)));
    }
  }
}

}  // namespace
}  // namespace scup::graph
