#include "graph/disjoint_paths.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"

namespace scup::graph {
namespace {

TEST(DisjointPathsTest, DirectEdgeIsOnePath) {
  Digraph g(2);
  g.add_edge(0, 1);
  EXPECT_EQ(max_vertex_disjoint_paths(g, 0, 1), 1u);
  EXPECT_EQ(max_vertex_disjoint_paths(g, 1, 0), 0u);
}

TEST(DisjointPathsTest, NoPath) {
  Digraph g(3);
  g.add_edge(1, 0);
  EXPECT_EQ(max_vertex_disjoint_paths(g, 0, 2), 0u);
}

TEST(DisjointPathsTest, SameEndpointThrows) {
  Digraph g(2);
  EXPECT_THROW((void)max_vertex_disjoint_paths(g, 0, 0),
               std::invalid_argument);
}

TEST(DisjointPathsTest, ParallelRoutes) {
  // 0 -> {1,2,3} -> 4 : three internally-disjoint paths.
  Digraph g(5);
  for (ProcessId mid : {1u, 2u, 3u}) {
    g.add_edge(0, mid);
    g.add_edge(mid, 4);
  }
  EXPECT_EQ(max_vertex_disjoint_paths(g, 0, 4), 3u);
  EXPECT_TRUE(has_k_vertex_disjoint_paths(g, 0, 4, 3, NodeSet::full(5)));
  EXPECT_FALSE(has_k_vertex_disjoint_paths(g, 0, 4, 4, NodeSet::full(5)));
}

TEST(DisjointPathsTest, SharedIntermediateLimits) {
  // Two routes that both must pass through node 1: only 1 disjoint path.
  Digraph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 4);
  g.add_edge(3, 4);
  EXPECT_EQ(max_vertex_disjoint_paths(g, 0, 4), 1u);
}

TEST(DisjointPathsTest, DirectEdgePlusIndirect) {
  Digraph g(3);
  g.add_edge(0, 2);        // direct
  g.add_edge(0, 1);
  g.add_edge(1, 2);        // via 1
  EXPECT_EQ(max_vertex_disjoint_paths(g, 0, 2), 2u);
}

TEST(DisjointPathsTest, ActiveMaskRemovesPaths) {
  Digraph g(5);
  for (ProcessId mid : {1u, 2u, 3u}) {
    g.add_edge(0, mid);
    g.add_edge(mid, 4);
  }
  NodeSet active = NodeSet::full(5);
  active.remove(2);
  EXPECT_EQ(max_vertex_disjoint_paths(g, 0, 4, active), 2u);
  // Inactive endpoint -> zero.
  active.remove(0);
  EXPECT_EQ(max_vertex_disjoint_paths(g, 0, 4, active), 0u);
}

TEST(DisjointPathEngineTest, ExtractCutSourceSideIsClosed) {
  // The certificate SinkDiscovery caches for a failed admission. On the
  // network the query ran on (everything reachable from the source), every
  // edge out of the source side ends in the source side or the cut, or is
  // the direct edge from the source to the target; no edge leaves that
  // network. So only an edge added after the cut was extracted can cross
  // it, and the cut has fewer than k vertices.
  constexpr std::size_t kN = 16;
  std::size_t failed = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Digraph g = random_digraph(kN, 0.12 + 0.02 * (seed % 6), seed);
    const auto u = static_cast<ProcessId>(seed % kN);
    const NodeSet active = g.reachable_from(u);
    DisjointPathEngine engine;
    engine.prepare(g, active);
    for (ProcessId v : active) {
      if (v == u) continue;
      for (std::size_t k = 1; k <= 4; ++k) {
        if (engine.has_k_paths(u, v, k)) continue;
        ++failed;
        const auto cut = engine.extract_cut(u, v);
        EXPECT_TRUE(cut.source_side.contains(u));
        EXPECT_LT(cut.cut.count(), k);
        for (ProcessId w : cut.source_side) {
          for (ProcessId x : g.successors(w)) {
            const bool closed = cut.source_side.contains(x) ||
                                cut.cut.contains(x) || (x == v && w == u);
            EXPECT_TRUE(closed) << "seed=" << seed << " u=" << u << " v=" << v
                                << " k=" << k << " edge " << w << "->" << x;
          }
        }
      }
    }
  }
  EXPECT_GT(failed, 200u);
}

TEST(KConnectivityTest, CompleteGraph) {
  const std::size_t n = 5;
  Digraph g(n);
  for (ProcessId u = 0; u < n; ++u) {
    for (ProcessId v = 0; v < n; ++v) {
      if (u != v) g.add_edge(u, v);
    }
  }
  // K5 is 4-strongly-connected but not 5.
  EXPECT_TRUE(is_k_strongly_connected(g, 4));
  EXPECT_FALSE(is_k_strongly_connected(g, 5));
}

TEST(KConnectivityTest, DirectedCycleIsExactlyOneConnected) {
  Digraph g(6);
  for (ProcessId i = 0; i < 6; ++i) g.add_edge(i, (i + 1) % 6);
  EXPECT_TRUE(is_k_strongly_connected(g, 1));
  EXPECT_FALSE(is_k_strongly_connected(g, 2));
}

TEST(KConnectivityTest, CirculantConstruction) {
  // The generator's sink construction: C_s(1..k) must be k-strongly
  // connected. Verify for several (s, k).
  for (std::size_t s : {5u, 7u, 9u}) {
    for (std::size_t k : {2u, 3u}) {
      Digraph g(s);
      for (ProcessId i = 0; i < s; ++i) {
        for (std::size_t j = 1; j <= k; ++j) {
          g.add_edge(i, static_cast<ProcessId>((i + j) % s));
        }
      }
      EXPECT_TRUE(is_k_strongly_connected(g, k)) << "s=" << s << " k=" << k;
    }
  }
}

TEST(KConnectivityTest, TrivialCases) {
  Digraph g(1);
  EXPECT_TRUE(is_k_strongly_connected(g, 3));  // single node, vacuous
  Digraph h(4);
  EXPECT_TRUE(is_k_strongly_connected(h, 2, NodeSet(4, {2})));
  EXPECT_TRUE(is_k_strongly_connected(h, 0));
}

TEST(KConnectivityTest, MatchesAllPairsReference) {
  // is_k_strongly_connected checks only the pairs through its first k
  // active nodes; the reference checks every ordered pair, as footnote 1
  // states it. Verdicts are counted only where |active| > k, the cases in
  // which the anchors are not every active node.
  Rng rng(23);
  std::size_t holds = 0;
  std::size_t fails = 0;
  for (std::size_t n = 3; n <= 12; ++n) {
    for (const double density : {0.2, 0.4, 0.6, 0.8}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const Digraph g = random_digraph(n, density, 100 * n + seed);
        // The full set, then the complements of random 1- and 2-node
        // failures.
        std::vector<NodeSet> actives{NodeSet::full(n)};
        for (const std::size_t failures : {1, 1, 2, 2}) {
          actives.push_back(
              NodeSet(n, rng.sample_ids(n, failures)).complement());
        }
        for (const NodeSet& active : actives) {
          DisjointPathEngine reference;
          reference.prepare(g, active);
          for (std::size_t k = 0; k <= 4; ++k) {
            bool expected = true;
            for (ProcessId u : active) {
              for (ProcessId v : active) {
                if (u != v && !reference.has_k_paths(u, v, k)) expected = false;
              }
            }
            ASSERT_EQ(is_k_strongly_connected(g, k, active), expected)
                << "n=" << n << " density=" << density << " seed=" << seed
                << " k=" << k << " active=" << active;
            if (active.count() > k) ++(expected ? holds : fails);
          }
        }
      }
    }
  }
  EXPECT_GT(holds, 0u);
  EXPECT_GT(fails, 0u);
}

TEST(FReachabilityTest, Definition9) {
  // 0 -> {1,2} -> 3, with f = 1: need 2 disjoint correct paths.
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  const NodeSet all_correct = NodeSet::full(4);
  EXPECT_TRUE(is_f_reachable(g, 0, 3, 1, all_correct));
  // If node 2 is faulty, only one correct path remains.
  NodeSet correct = all_correct;
  correct.remove(2);
  EXPECT_FALSE(is_f_reachable(g, 0, 3, 1, correct));
  EXPECT_TRUE(is_f_reachable(g, 0, 3, 0, correct));
  // Trivially self-reachable.
  EXPECT_TRUE(is_f_reachable(g, 2, 2, 5, all_correct));
}

// Property: Menger's theorem cross-check on small random graphs — the
// max-flow answer equals a brute-force greedy upper/lower sandwich:
// we verify monotonicity (k paths => k-1 paths) and consistency with
// reachability.
class DisjointPathsPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DisjointPathsPropertyTest, MonotoneAndConsistent) {
  const Digraph g = random_digraph(14, 0.2, GetParam());
  const NodeSet all = NodeSet::full(14);
  Rng rng(GetParam() * 77 + 1);
  for (int trial = 0; trial < 10; ++trial) {
    const ProcessId u = static_cast<ProcessId>(rng.uniform(14));
    ProcessId v = static_cast<ProcessId>(rng.uniform(14));
    if (u == v) v = (v + 1) % 14;
    const std::size_t paths = max_vertex_disjoint_paths(g, u, v, all);
    // Consistency with plain reachability.
    EXPECT_EQ(paths > 0, g.reachable_from(u).contains(v));
    // has_k agrees with the exact count on both sides of the threshold.
    if (paths > 0) {
      EXPECT_TRUE(has_k_vertex_disjoint_paths(g, u, v, paths, all));
    }
    EXPECT_FALSE(has_k_vertex_disjoint_paths(g, u, v, paths + 1, all));
    // Paths bounded by degrees.
    EXPECT_LE(paths, g.out_degree(u));
    EXPECT_LE(paths, g.in_degree(v));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisjointPathsPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace scup::graph
