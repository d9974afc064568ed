// graph/dominators: immediate dominators and their Menger reading (for a
// non-adjacent target j, idom(j) == root ⟺ two internally-vertex-disjoint
// root→j paths), cross-checked against the max-flow oracle.
#include "graph/dominators.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "graph/disjoint_paths.hpp"
#include "graph/generators.hpp"

namespace scup::graph {
namespace {

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

}  // namespace
}  // namespace scup::graph
