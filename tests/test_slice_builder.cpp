// Algorithm 2 (build_slices) and the paper's core theorems as executable
// properties:
//  - Theorem 3: any two correct processes are intertwined (|Q∩Q′| > f),
//  - Theorem 4: every correct process has an all-correct quorum,
//  - Theorem 5: all correct processes form one maximal consensus cluster,
//  - Theorem 2: the local construction violates quorum intersection.
#include "sinkdetector/slice_builder.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fbqs/fig_examples.hpp"
#include "fbqs/quorum.hpp"
#include "graph/generators.hpp"
#include "graph/kosr.hpp"
#include "graph/scc.hpp"

namespace scup::sinkdetector {
namespace {

using fbqs::FbqsSystem;
using fbqs::QSet;

/// Number of slices `q` denotes over a small universe: the inclusion-
/// minimal sets that satisfy it.
std::size_t slice_count(const QSet& q, std::size_t universe) {
  std::size_t count = 0;
  for (std::uint32_t mask = 0; mask < (1u << universe); ++mask) {
    NodeSet s(universe);
    for (ProcessId b = 0; b < universe; ++b) {
      if ((mask >> b) & 1u) s.add(b);
    }
    if (!q.satisfied_by(s)) continue;
    bool minimal = true;
    for (ProcessId m : s) {
      NodeSet smaller = s;
      smaller.remove(m);
      minimal = minimal && !q.satisfied_by(smaller);
    }
    if (minimal) ++count;
  }
  return count;
}

TEST(SliceBuilderTest, SinkSliceSizeFormula) {
  // ⌈(|V|+f+1)/2⌉
  EXPECT_EQ(sink_slice_size(4, 1), 3u);   // (4+2)/2 = 3
  EXPECT_EQ(sink_slice_size(5, 1), 4u);   // ceil(7/2) = 4
  EXPECT_EQ(sink_slice_size(7, 2), 5u);   // (7+3)/2 = 5
  EXPECT_EQ(sink_slice_size(8, 2), 6u);   // ceil(11/2) = 6
  EXPECT_EQ(sink_slice_size(3, 0), 2u);
}

TEST(SliceBuilderTest, SinkMemberSlices) {
  GetSinkResult r;
  r.is_sink_member = true;
  r.sink = NodeSet(10, {0, 1, 2, 3});
  const QSet s = build_slices(r, 1);
  // The flat qset SCP sends, validators in ascending id order.
  EXPECT_TRUE(s == QSet::threshold_of(3, std::vector<ProcessId>{0, 1, 2, 3}))
      << s.to_string();
  EXPECT_EQ(slice_count(s, 10), 4u);  // C(4,3)
}

TEST(SliceBuilderTest, NonSinkMemberSlices) {
  GetSinkResult r;
  r.is_sink_member = false;
  r.sink = NodeSet(10, {0, 1, 2, 3});
  const QSet s = build_slices(r, 1);
  EXPECT_TRUE(s.inner_sets().empty());
  EXPECT_EQ(s.threshold(), 2u);  // f+1
  EXPECT_EQ(s.validators(), r.sink.to_vector());
  EXPECT_EQ(slice_count(s, 10), 6u);  // C(4,2)
}

TEST(SliceBuilderTest, RejectsDegenerateInputs) {
  GetSinkResult r;
  r.is_sink_member = false;
  r.sink = NodeSet(10, {0});
  EXPECT_THROW(build_slices(r, 1), std::invalid_argument);  // |V| < f+1
  EXPECT_THROW(local_slices(NodeSet(10, {0}), 1), std::invalid_argument);
}

TEST(SliceBuilderTest, LocalSlicesMatchTheorem2Construction) {
  // On Fig. 2 with f = 1: all subsets of PD_i of size |PD_i| - 1.
  const auto g = graph::fig2_graph();
  const QSet s = local_slices(g.pd_of(0), 1);
  EXPECT_TRUE(s.inner_sets().empty());
  EXPECT_EQ(s.threshold(), 2u);
  EXPECT_EQ(s.validators(), g.pd_of(0).to_vector());
}

/// Builds the FBQS resulting from running Algorithm 2 at every correct
/// process with the exact sink (what the SD oracle returns under
/// non-fabricating adversaries). Faulty processes get arbitrary slices —
/// here the same as correct sink members, the adversary's best shot at
/// being counted inside quorums.
FbqsSystem algorithm2_system(std::size_t n, const NodeSet& sink,
                             std::size_t f) {
  FbqsSystem sys(n);
  for (ProcessId i = 0; i < n; ++i) {
    GetSinkResult r;
    r.is_sink_member = sink.contains(i);
    r.sink = sink;
    sys.set_slices(i, build_slices(r, f));
  }
  return sys;
}

TEST(Theorem3Test, Fig1SinkYieldsIntertwinedSystem) {
  const NodeSet sink = graph::fig1_sink();
  const FbqsSystem sys = algorithm2_system(8, sink, 1);
  const NodeSet w = graph::fig1_faulty().complement();
  const auto report = sys.check_intertwined(w, 1);
  EXPECT_TRUE(report.ok);
  EXPECT_GT(report.min_intersection, 1u);
}

TEST(Theorem4Test, Fig1EveryCorrectProcessHasAllCorrectQuorum) {
  const NodeSet sink = graph::fig1_sink();
  const FbqsSystem sys = algorithm2_system(8, sink, 1);
  const NodeSet w = graph::fig1_faulty().complement();
  for (ProcessId i : w) {
    const auto q = sys.find_quorum_for(i, w);
    ASSERT_TRUE(q.has_value()) << "i=" << i;
    EXPECT_TRUE(q->subset_of(w));
    EXPECT_TRUE(sys.is_quorum_for(i, *q));
  }
}

TEST(Theorem5Test, Fig1AllCorrectFormMaximalCluster) {
  const NodeSet sink = graph::fig1_sink();
  const FbqsSystem sys = algorithm2_system(8, sink, 1);
  const NodeSet w = graph::fig1_faulty().complement();
  EXPECT_TRUE(sys.is_consensus_cluster(w, w, 1));
  const auto maximal = sys.maximal_consensus_cluster(w, 1);
  ASSERT_TRUE(maximal.has_value());
  EXPECT_EQ(*maximal, w);
}

TEST(Theorem2Test, LocalSlicesVsAlgorithm2OnFig2) {
  // Same graph, same f: the local construction admits disjoint quorums,
  // Algorithm 2 does not.
  const auto g = graph::fig2_graph();
  const NodeSet sink = graph::fig2_sink();

  const FbqsSystem local = fbqs::fig2_local_system();
  const auto bad = local.check_intertwined(NodeSet::full(7), 1);
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.min_intersection, 0u);

  const FbqsSystem fixed = algorithm2_system(7, sink, 1);
  const auto good = fixed.check_intertwined(NodeSet::full(7), 1);
  EXPECT_TRUE(good.ok);
  EXPECT_GT(good.min_intersection, 1u);
}

/// Quorum structure facts from the Section V analysis.
TEST(Algorithm2StructureTest, QuorumLowerBounds) {
  // Any quorum containing a correct sink member has >= ⌈(|V|+f+1)/2⌉ sink
  // members; any quorum of a non-sink member contains a sink quorum.
  const std::size_t n = 9;
  const NodeSet sink(n, {0, 1, 2, 3, 4});
  const std::size_t f = 1;
  const FbqsSystem sys = algorithm2_system(n, sink, f);
  const std::size_t m = sink_slice_size(sink.count(), f);
  for (const NodeSet& q : sys.all_quorums()) {
    if (q.intersects(sink)) {
      EXPECT_GE(q.intersection_count(sink), m) << q.to_string();
    }
  }
}

// Property sweeps over random k-OSR graphs and failure placements.
class TheoremPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TheoremPropertyTest, Theorems3And4And5OnRandomGraphs) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 97 + 13);
  const std::size_t f = 1 + seed % 2;
  graph::KosrGenParams params;
  params.sink_size = 3 * f + 1 + seed % 2;
  params.non_sink_size = 2 + seed % 4;
  params.k = 2 * f + 1;
  params.seed = seed;
  const auto g = graph::random_kosr_graph(params);
  const std::size_t n = g.node_count();
  if (n > 14) GTEST_SKIP() << "exhaustive check too large";
  const NodeSet sink = graph::unique_sink_component(g);
  const NodeSet faulty =
      graph::pick_safe_faulty_set(g, sink, f, /*allow_in_sink=*/true, rng);
  const NodeSet w = faulty.complement();

  const FbqsSystem sys = algorithm2_system(n, sink, f);

  // Theorem 3.
  const auto report = sys.check_intertwined(w, f);
  EXPECT_TRUE(report.ok) << "seed=" << seed
                         << " min=" << report.min_intersection;
  EXPECT_GT(report.min_intersection, f);

  // Theorem 4.
  for (ProcessId i : w) {
    const auto q = sys.find_quorum_for(i, w);
    ASSERT_TRUE(q.has_value()) << "seed=" << seed << " i=" << i;
    EXPECT_TRUE(q->subset_of(w));
  }

  // Theorem 5 (via Definition 3 on W).
  EXPECT_TRUE(sys.is_consensus_cluster(w, w, f)) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TheoremPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 25));

// Theorem 2 holds beyond the Fig. 2 example: local slices violate quorum
// intersection on a family of "two-camp" k-OSR graphs generalizing Fig. 2
// (a sink clique + a non-sink ring whose PDs are mostly mutual).
class Theorem2FamilyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Theorem2FamilyTest, LocalSlicesAdmitDisjointQuorums) {
  const std::size_t camp = GetParam();  // size of each camp (>= 3)
  const std::size_t n = 2 * camp;
  graph::Digraph g(n);
  // Sink camp: complete digraph among [0, camp).
  for (ProcessId u = 0; u < camp; ++u) {
    for (ProcessId v = 0; v < camp; ++v) {
      if (u != v) g.add_edge(u, v);
    }
  }
  // Non-sink camp: each node knows the other camp members plus one sink
  // member (enough for weak connectivity and paths to the sink).
  for (ProcessId u = static_cast<ProcessId>(camp); u < n; ++u) {
    for (ProcessId v = static_cast<ProcessId>(camp); v < n; ++v) {
      if (u != v) g.add_edge(u, v);
    }
    g.add_edge(u, u % camp);
  }

  fbqs::FbqsSystem sys(n);
  for (ProcessId i = 0; i < n; ++i) {
    sys.set_slices(i, local_slices(g.pd_of(i), 1));
  }
  // Each camp is a quorum on its own; the camps are disjoint.
  NodeSet sink_camp(n), other_camp(n);
  for (ProcessId i = 0; i < camp; ++i) sink_camp.add(i);
  for (ProcessId i = static_cast<ProcessId>(camp); i < n; ++i) {
    other_camp.add(i);
  }
  EXPECT_TRUE(sys.is_quorum(sink_camp));
  EXPECT_TRUE(sys.is_quorum(other_camp));
  EXPECT_FALSE(sink_camp.intersects(other_camp));
}

INSTANTIATE_TEST_SUITE_P(CampSizes, Theorem2FamilyTest,
                         ::testing::Values(3, 4, 5, 6));

}  // namespace
}  // namespace scup::sinkdetector
