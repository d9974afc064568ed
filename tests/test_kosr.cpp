#include "graph/kosr.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "graph/disjoint_paths.hpp"
#include "graph/generators.hpp"
#include "graph/scc.hpp"

namespace scup::graph {
namespace {

TEST(KosrTest, Fig2Is3Osr) {
  // The paper states Fig. 2 is a 3-OSR PD with sink {1,2,3,4}.
  const Digraph g = fig2_graph();
  const KosrReport report = check_kosr(g, 3);
  EXPECT_TRUE(report.weakly_connected);
  EXPECT_TRUE(report.single_sink);
  EXPECT_TRUE(report.sink_k_connected);
  EXPECT_TRUE(report.paths_to_sink);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.sink, fig2_sink());
}

TEST(KosrTest, Fig1IsOsrWithSmallK) {
  // Fig. 1's sink {5,6,7,8} is 2-strongly connected; the graph is 1-OSR at
  // least (it is the paper's running example for f = 1 with the failure
  // outside critical paths).
  const Digraph g = fig1_graph();
  const KosrReport r1 = check_kosr(g, 1);
  EXPECT_TRUE(r1.ok()) << r1.to_string();
  EXPECT_EQ(r1.sink, fig1_sink());
}

TEST(KosrTest, DisconnectedFails) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const KosrReport r = check_kosr(g, 1);
  EXPECT_FALSE(r.weakly_connected);
  EXPECT_FALSE(r.ok());
}

TEST(KosrTest, TwoSinksFail) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(2, 3);
  g.add_edge(3, 2);
  g.add_edge(0, 2);  // connect weakly: component A reaches B... B is sink
  // Now only one sink: {2,3}. Break it with an isolated extra sink:
  const KosrReport r = check_kosr(g, 1);
  EXPECT_TRUE(r.single_sink);
  // Add a second sink: node isolated except incoming edge.
  Digraph h(5);
  h.add_edge(0, 1);
  h.add_edge(1, 0);
  h.add_edge(0, 2);
  h.add_edge(0, 3);
  h.add_edge(3, 4);
  // sinks: {2} and {4}
  const KosrReport rh = check_kosr(h, 1);
  EXPECT_TRUE(rh.weakly_connected);
  EXPECT_FALSE(rh.single_sink);
  EXPECT_FALSE(rh.ok());
}

TEST(KosrTest, InsufficientSinkConnectivity) {
  // Sink is a directed cycle (1-connected); demand k = 2.
  Digraph g(5);
  for (ProcessId i = 0; i < 4; ++i) g.add_edge(i, (i + 1) % 4);
  g.add_edge(4, 0);  // non-sink node 4 points in
  const KosrReport r = check_kosr(g, 2);
  EXPECT_TRUE(r.single_sink);
  EXPECT_FALSE(r.sink_k_connected);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(check_kosr(g, 1).ok());
}

TEST(KosrTest, InsufficientPathsFromNonSink) {
  // Sink = K4-ish circulant (2-connected); non-sink node has only 1 edge in.
  Digraph g(5);
  for (ProcessId i = 0; i < 4; ++i) {
    g.add_edge(i, (i + 1) % 4);
    g.add_edge(i, (i + 2) % 4);
  }
  g.add_edge(4, 0);
  const KosrReport r = check_kosr(g, 2);
  EXPECT_TRUE(r.sink_k_connected);
  EXPECT_FALSE(r.paths_to_sink);
  EXPECT_TRUE(check_kosr(g, 1).ok());
}

// Sink C4(1,2) on {0..3}; the non-sink nodes 4 and 5 point at each other
// and at sink member 0 only, so each has two disjoint paths to 0 but one to
// every other sink member.
Digraph short_at_second_sink_member() {
  Digraph g(6);
  for (ProcessId i = 0; i < 4; ++i) {
    g.add_edge(i, (i + 1) % 4);
    g.add_edge(i, (i + 2) % 4);
  }
  g.add_edge(4, 0);
  g.add_edge(4, 5);
  g.add_edge(5, 0);
  g.add_edge(5, 4);
  return g;
}

TEST(KosrTest, PathsToSinkShortAtSecondSinkMember) {
  // Clause (3) holds, so clause (4) is decided against the first two sink
  // members; only the second shows the shortfall.
  const Digraph g = short_at_second_sink_member();
  EXPECT_EQ(max_vertex_disjoint_paths(g, 4, 0), 2u);
  EXPECT_EQ(max_vertex_disjoint_paths(g, 4, 1), 1u);
  const KosrReport r = check_kosr(g, 2);
  EXPECT_TRUE(r.weakly_connected);
  EXPECT_TRUE(r.single_sink);
  EXPECT_TRUE(r.sink_k_connected);
  EXPECT_FALSE(r.paths_to_sink);
  EXPECT_EQ(r.sink, NodeSet(6, {0, 1, 2, 3}));
}

TEST(KosrTest, PathsToSinkMatchesFreshNetworkPerPair) {
  // check_kosr decides clause (4) against the first k sink members when
  // clause (3) holds and against every sink member when it fails. The
  // reference checks clause (3) on every ordered pair of sink members and
  // clause (4) on every (non-sink, sink) pair, with a fresh network per
  // pair. Unlike check_kosr it keeps querying after a failed pair, so a
  // network shared by those pairs is also checked for reuse after a failed
  // query.
  std::vector<Digraph> graphs{short_at_second_sink_member()};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    graphs.push_back(random_digraph(8 + seed % 4, 0.25 + 0.05 * (seed % 3),
                                    seed));
    KosrGenParams params;
    params.sink_size = 4 + seed % 3;
    params.non_sink_size = 3 + seed % 3;
    params.k = 1 + seed % 3;
    params.seed = seed;
    graphs.push_back(random_kosr_graph(params));
  }
  Rng rng(77);
  // Clause (4) verdicts, [clause (3) holds][clause (4) holds].
  std::size_t verdicts[2][2] = {{0, 0}, {0, 0}};
  std::size_t queries_after_failure = 0;
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const Digraph& g = graphs[gi];
    const std::size_t n = g.node_count();
    // The full set, then the complements of random 1- and 2-node failures.
    std::vector<NodeSet> actives{NodeSet::full(n)};
    for (const std::size_t failures : {1, 1, 2, 2}) {
      actives.push_back(NodeSet(n, rng.sample_ids(n, failures)).complement());
    }
    for (const NodeSet& active : actives) {
      for (std::size_t k = 1; k <= 3; ++k) {
        const KosrReport r = check_kosr(g, k, active);
        if (!r.single_sink) continue;
        bool sink_connected = true;
        for (ProcessId u : r.sink) {
          for (ProcessId v : r.sink) {
            if (u != v && !has_k_vertex_disjoint_paths(g, u, v, k, r.sink)) {
              sink_connected = false;
            }
          }
        }
        EXPECT_EQ(r.sink_k_connected, sink_connected)
            << "graph=" << gi << " k=" << k << " active=" << active;
        DisjointPathEngine shared;
        shared.prepare(g, active);
        bool expected = true;
        for (ProcessId i : active) {
          if (r.sink.contains(i)) continue;
          for (ProcessId j : r.sink) {
            const bool fresh = has_k_vertex_disjoint_paths(g, i, j, k, active);
            if (!expected) ++queries_after_failure;
            ASSERT_EQ(shared.has_k_paths(i, j, k), fresh)
                << "graph=" << gi << " k=" << k << " active=" << active
                << " pair=" << i << "->" << j;
            expected = expected && fresh;
          }
        }
        EXPECT_EQ(r.paths_to_sink, expected)
            << "graph=" << gi << " k=" << k << " active=" << active;
        ++verdicts[sink_connected][expected];
      }
    }
  }
  // The sample must exercise both verdicts of clause (4) on both of its
  // target lists.
  for (const auto& branch : verdicts) {
    EXPECT_GT(branch[false], 0u);
    EXPECT_GT(branch[true], 0u);
  }
  EXPECT_GT(queries_after_failure, 0u);
}

TEST(KosrGeneratorTest, GeneratedGraphsPassChecker) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    KosrGenParams params;
    params.sink_size = 5;
    params.non_sink_size = 4;
    params.k = 2;
    params.seed = seed;
    const Digraph g = random_kosr_graph(params);
    const KosrReport r = check_kosr(g, params.k);
    EXPECT_TRUE(r.ok()) << "seed=" << seed << " " << r.to_string();
    EXPECT_EQ(r.sink.count(), params.sink_size);
    // Sink members are exactly ids [0, sink_size).
    for (ProcessId i = 0; i < params.sink_size; ++i) {
      EXPECT_TRUE(r.sink.contains(i));
    }
  }
}

TEST(KosrGeneratorTest, RejectsBadParameters) {
  KosrGenParams params;
  params.sink_size = 0;
  EXPECT_THROW(random_kosr_graph(params), std::invalid_argument);
  params.sink_size = 3;
  params.k = 3;
  EXPECT_THROW(random_kosr_graph(params), std::invalid_argument);
}

TEST(ByzantineSafetyTest, Fig2SafeForF1) {
  // Fig. 2 provides enough knowledge for f = 1 per the paper: whether the
  // faulty process is in the sink or not, the residual graph is 2-OSR.
  const Digraph g = fig2_graph();
  for (ProcessId victim = 0; victim < 7; ++victim) {
    NodeSet faulty(7, {victim});
    EXPECT_TRUE(is_byzantine_safe(g, faulty, 1)) << "victim=" << victim;
    EXPECT_TRUE(satisfies_bft_cup_preconditions(g, faulty, 1))
        << "victim=" << victim;
  }
}

TEST(ByzantineSafetyTest, TooManyFaultsRejected) {
  const Digraph g = fig2_graph();
  EXPECT_FALSE(is_byzantine_safe(g, NodeSet(7, {0, 1}), 1));
}

TEST(ByzantineSafetyTest, SinkNeeds2fPlus1Correct) {
  // A graph whose sink has only 2 correct members cannot satisfy the
  // BFT-CUP precondition for f = 1 even if k-OSR holds.
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(2, 0);
  g.add_edge(2, 1);
  NodeSet faulty(3, {1});
  EXPECT_FALSE(satisfies_bft_cup_preconditions(g, faulty, 1));
}

TEST(ByzantineSafetyTest, GeneratedFamiliesWithSafeFaultPlacement) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::size_t f = 1;
    KosrGenParams params;
    params.sink_size = 3 * f + 2;  // tolerate in-sink faults
    params.non_sink_size = 3;
    params.k = 2 * f + 1;
    params.seed = seed;
    const Digraph g = random_kosr_graph(params);
    Rng rng(seed + 1000);
    const NodeSet sink = unique_sink_component(g);
    const NodeSet faulty =
        pick_safe_faulty_set(g, sink, f, /*allow_in_sink=*/true, rng);
    EXPECT_EQ(faulty.count(), f);
    EXPECT_TRUE(satisfies_bft_cup_preconditions(g, faulty, f));
  }
}

}  // namespace
}  // namespace scup::graph
