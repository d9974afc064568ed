#include "graph/digraph.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"

namespace scup::graph {
namespace {

TEST(DigraphTest, EmptyGraph) {
  Digraph g(5);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(g.successors(0).empty());
}

TEST(DigraphTest, AddEdgeBasics) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(2), 2u);
}

TEST(DigraphTest, SelfLoopsAndDuplicatesIgnored) {
  Digraph g(3);
  g.add_edge(1, 1);
  EXPECT_EQ(g.edge_count(), 0u);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(DigraphTest, OutOfRangeThrows) {
  Digraph g(3);
  EXPECT_THROW(g.add_edge(0, 3), std::out_of_range);
  EXPECT_THROW(g.add_edge(3, 0), std::out_of_range);
  EXPECT_THROW((void)g.has_edge(0, 5), std::out_of_range);
  EXPECT_THROW((void)g.successors(9), std::out_of_range);
}

TEST(DigraphTest, SuccessorPredecessorSets) {
  Digraph g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 3);
  g.add_edge(2, 3);
  EXPECT_EQ(g.successor_set(0), NodeSet(5, {1, 3}));
  EXPECT_EQ(g.predecessor_set(3), NodeSet(5, {0, 2}));
  EXPECT_EQ(g.pd_of(0), NodeSet(5, {1, 3}));
}

TEST(DigraphTest, AddEdgesAppendsNewTargetsInIdOrder) {
  Digraph g(6);
  g.add_edge(0, 4);
  g.add_edge(0, 1);
  // 0 is u itself and 1 is already a successor: only 2, 3 and 5 are new,
  // and they follow the existing successors in id order.
  g.add_edges(0, NodeSet(6, {0, 1, 2, 3, 5}));
  EXPECT_EQ(g.successors(0), (std::vector<ProcessId>{4, 1, 2, 3, 5}));
  EXPECT_EQ(g.edge_count(), 5u);
  EXPECT_FALSE(g.has_edge(0, 0));
  EXPECT_EQ(g.predecessors(3), NodeSet(6, {0}));
  EXPECT_EQ(g.in_degree(0), 0u);

  // Nothing new: nothing changes.
  g.add_edges(0, NodeSet(6, {0, 2, 4}));
  EXPECT_EQ(g.successors(0), (std::vector<ProcessId>{4, 1, 2, 3, 5}));
  EXPECT_EQ(g.edge_count(), 5u);

  EXPECT_THROW(g.add_edges(6, NodeSet(6, {1})), std::out_of_range);
  EXPECT_THROW(g.add_edges(0, NodeSet(7, {1})), std::invalid_argument);
}

TEST(DigraphTest, AddEdgesMatchesAddEdgeOneByOne) {
  // Rows arrive in pieces, in random order and overlapping what is already
  // there (as union-merged certificates do); one graph takes each piece
  // with add_edges, the other with add_edge per member in id order.
  Rng rng(17);
  for (const std::size_t n : {std::size_t{12}, std::size_t{300}}) {
    Digraph batched(n);
    Digraph single(n);
    for (int piece = 0; piece < 400; ++piece) {
      const auto u = static_cast<ProcessId>(rng.uniform(n));
      NodeSet targets(n);
      for (ProcessId v = 0; v < n; ++v) {
        if (rng.chance(0.2)) targets.add(v);
      }
      batched.add_edges(u, targets);
      for (ProcessId v : targets) single.add_edge(u, v);
    }
    ASSERT_EQ(batched.edge_count(), single.edge_count()) << "n=" << n;
    for (ProcessId u = 0; u < n; ++u) {
      EXPECT_EQ(batched.successors(u), single.successors(u)) << "u=" << u;
      EXPECT_EQ(batched.predecessors(u), single.predecessors(u)) << "u=" << u;
      EXPECT_EQ(batched.in_degree(u), single.in_degree(u)) << "u=" << u;
      EXPECT_EQ(batched.predecessor_set(u), single.predecessor_set(u));
      EXPECT_EQ(batched.successor_set(u), single.successor_set(u));
      for (ProcessId v = 0; v < n; ++v) {
        ASSERT_EQ(batched.has_edge(u, v), single.has_edge(u, v))
            << "u=" << u << " v=" << v;
      }
    }
  }
}

TEST(DigraphTest, Reversed) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const Digraph r = g.reversed();
  EXPECT_TRUE(r.has_edge(1, 0));
  EXPECT_TRUE(r.has_edge(2, 1));
  EXPECT_FALSE(r.has_edge(0, 1));
  EXPECT_EQ(r.edge_count(), 2u);
}

TEST(DigraphTest, UndirectedClosure) {
  Digraph g(3);
  g.add_edge(0, 1);
  const Digraph u = g.undirected_closure();
  EXPECT_TRUE(u.has_edge(0, 1));
  EXPECT_TRUE(u.has_edge(1, 0));
  EXPECT_EQ(u.edge_count(), 2u);
}

TEST(DigraphTest, InducedSubgraph) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const Digraph sub = g.induced_subgraph(NodeSet(4, {0, 1, 3}));
  EXPECT_TRUE(sub.has_edge(0, 1));
  EXPECT_FALSE(sub.has_edge(1, 2));
  EXPECT_FALSE(sub.has_edge(2, 3));
  EXPECT_EQ(sub.edge_count(), 1u);
}

TEST(DigraphTest, Reachability) {
  Digraph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  EXPECT_EQ(g.reachable_from(0), NodeSet(6, {0, 1, 2}));
  EXPECT_EQ(g.reachable_from(3), NodeSet(6, {3, 4}));
  EXPECT_EQ(g.reachable_from(5), NodeSet(6, {5}));
  // Restricted to active set: node 1 removed cuts the path.
  EXPECT_EQ(g.reachable_from(0, NodeSet(6, {0, 2, 3, 4, 5})), NodeSet(6, {0}));
}

TEST(DigraphTest, Fig1Structure) {
  const Digraph g = fig1_graph();
  EXPECT_EQ(g.node_count(), 8u);
  // Paper: PD1 = {2, 5}  ->  our process 0 knows {1, 4}.
  EXPECT_EQ(g.pd_of(0), NodeSet(8, {1, 4}));
  EXPECT_EQ(g.pd_of(1), NodeSet(8, {3}));
  EXPECT_EQ(g.pd_of(3), NodeSet(8, {4, 5, 7}));
  EXPECT_EQ(g.pd_of(7), NodeSet(8, {5, 6}));
  // Every process reaches the sink.
  for (ProcessId i = 0; i < 8; ++i) {
    EXPECT_TRUE(fig1_sink().subset_of(g.reachable_from(i))) << "i=" << i;
  }
}

TEST(DigraphTest, Fig2Structure) {
  const Digraph g = fig2_graph();
  EXPECT_EQ(g.node_count(), 7u);
  EXPECT_EQ(g.pd_of(0), NodeSet(7, {1, 2, 3}));
  EXPECT_EQ(g.pd_of(4), NodeSet(7, {0, 5, 6}));
  // Sink members {0,1,2,3} only know each other.
  for (ProcessId i : fig2_sink()) {
    EXPECT_TRUE(g.pd_of(i).subset_of(fig2_sink()));
  }
}

}  // namespace
}  // namespace scup::graph
