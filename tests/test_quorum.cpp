#include "fbqs/quorum.hpp"

#include <gtest/gtest.h>

#include "fbqs/fig_examples.hpp"
#include "graph/generators.hpp"

namespace scup::fbqs {
namespace {

/// Builds a NodeSet from paper (1-based) ids.
NodeSet paper_set(std::size_t universe, std::initializer_list<ProcessId> ids) {
  NodeSet s(universe);
  for (ProcessId id : ids) s.add(id - 1);
  return s;
}

TEST(FbqsSystemTest, IsQuorumAlgorithm1) {
  FbqsSystem sys(4);
  sys.set_slices(0, QSet::one_of({NodeSet(4, {1})}));
  sys.set_slices(1, QSet::one_of({NodeSet(4, {0})}));
  sys.set_slices(2, QSet::one_of({NodeSet(4, {3})}));
  sys.set_slices(3, QSet::one_of({NodeSet(4, {0, 1})}));
  EXPECT_TRUE(sys.is_quorum(NodeSet(4, {0, 1})));
  EXPECT_FALSE(sys.is_quorum(NodeSet(4, {0})));       // 0 needs 1
  EXPECT_FALSE(sys.is_quorum(NodeSet(4, {2, 3})));    // 3 needs {0,1}
  EXPECT_TRUE(sys.is_quorum(NodeSet(4, {0, 1, 3})));
  EXPECT_TRUE(sys.is_quorum(NodeSet(4, {0, 1, 2, 3})));
  // Empty set is vacuously a quorum.
  EXPECT_TRUE(sys.is_quorum(NodeSet(4)));
}

TEST(FbqsSystemTest, MissingSlicesMeansNotAQuorumMember) {
  FbqsSystem sys(3);
  sys.set_slices(0, QSet::one_of({NodeSet(3, {1})}));
  sys.set_slices(1, QSet::one_of({NodeSet(3, {0})}));
  // Process 2 has no slices: any set containing it fails Algorithm 1.
  EXPECT_TRUE(sys.is_quorum(NodeSet(3, {0, 1})));
  EXPECT_FALSE(sys.is_quorum(NodeSet(3, {0, 1, 2})));
  EXPECT_FALSE(sys.has_slices(2));
  EXPECT_THROW((void)sys.slices_of(2), std::logic_error);
}

TEST(FbqsSystemTest, IsQuorumFor) {
  FbqsSystem sys(3);
  sys.set_slices(0, QSet::one_of({NodeSet(3, {1})}));
  sys.set_slices(1, QSet::one_of({NodeSet(3, {0})}));
  sys.set_slices(2, QSet::one_of({NodeSet(3, {0, 1})}));
  EXPECT_TRUE(sys.is_quorum_for(0, NodeSet(3, {0, 1})));
  EXPECT_FALSE(sys.is_quorum_for(2, NodeSet(3, {0, 1})));  // 2 not inside
  EXPECT_TRUE(sys.is_quorum_for(2, NodeSet(3, {0, 1, 2})));
}

TEST(FbqsSystemTest, QuorumClosure) {
  FbqsSystem sys(4);
  sys.set_slices(0, QSet::one_of({NodeSet(4, {1})}));
  sys.set_slices(1, QSet::one_of({NodeSet(4, {0})}));
  sys.set_slices(2, QSet::one_of({NodeSet(4, {3})}));
  sys.set_slices(3, QSet::one_of({NodeSet(4, {2})}));
  // {0,1,2} -> 2 depends on 3 which is absent -> closure {0,1}.
  EXPECT_EQ(sys.quorum_closure(NodeSet(4, {0, 1, 2})), NodeSet(4, {0, 1}));
  EXPECT_EQ(sys.quorum_closure(NodeSet::full(4)), NodeSet::full(4));
  EXPECT_EQ(sys.quorum_closure(NodeSet(4, {2})), NodeSet(4));
}

TEST(FbqsSystemTest, FindQuorumFor) {
  FbqsSystem sys(4);
  sys.set_slices(0, QSet::one_of({NodeSet(4, {1})}));
  sys.set_slices(1, QSet::one_of({NodeSet(4, {0})}));
  sys.set_slices(2, QSet::one_of({NodeSet(4, {3})}));
  sys.set_slices(3, QSet::one_of({NodeSet(4, {2})}));
  auto q0 = sys.find_quorum_for(0, NodeSet::full(4));
  ASSERT_TRUE(q0.has_value());
  EXPECT_TRUE(sys.is_quorum_for(0, *q0));
  // Within {0, 2, 3}: 0's slice {1} unavailable -> no quorum for 0.
  EXPECT_FALSE(sys.find_quorum_for(0, NodeSet(4, {0, 2, 3})).has_value());
}

TEST(FbqsSystemTest, AllQuorumsGuard) {
  FbqsSystem sys(21);
  EXPECT_THROW((void)sys.all_quorums(20), std::invalid_argument);
}

TEST(Fig1ExampleTest, PaperQuorums) {
  const FbqsSystem sys = fig1_system();
  constexpr std::size_t n = 8;
  // The paper: Q5 = Q6 = Q7 = {5,6,7} is a quorum (our {4,5,6}).
  const NodeSet q567 = paper_set(n, {5, 6, 7});
  EXPECT_TRUE(sys.is_quorum(q567));
  for (ProcessId member : q567) {
    EXPECT_TRUE(sys.is_quorum_for(member, q567));
  }
  // 1's quorum includes its slice {2,5} and closure: {1,2,4,5,6,7} paper =
  // {0,1,3,4,5,6} ours.
  auto q1 = sys.find_quorum_for(0, NodeSet::full(n));
  ASSERT_TRUE(q1.has_value());
  // A quorum of process 3 (paper) exists containing {3,5,6,7}.
  auto q3 = sys.find_quorum_for(2, NodeSet::full(n));
  ASSERT_TRUE(q3.has_value());
  EXPECT_TRUE(q3->superset_of(paper_set(n, {5, 6, 7})));
}

TEST(Fig1ExampleTest, MinimalQuorumsOfSinkTrio) {
  const FbqsSystem sys = fig1_system();
  // {5,6,7} (paper) is a minimal quorum for 5, 6 and 7. For 6 and 7 the
  // faulty process 8's (arbitrarily chosen) slices make {6,7,8} a second
  // minimal quorum; for 5 the quorum is unique.
  const NodeSet q567 = paper_set(8, {5, 6, 7});
  for (ProcessId paper_id : {5u, 6u, 7u}) {
    const auto minimal = sys.minimal_quorums_for(paper_id - 1);
    bool found = false;
    for (const NodeSet& q : minimal) found = found || q == q567;
    EXPECT_TRUE(found) << "paper process " << paper_id;
  }
  const auto minimal5 = sys.minimal_quorums_for(4);
  ASSERT_EQ(minimal5.size(), 1u);
  EXPECT_EQ(minimal5[0], q567);
}

TEST(Fig1ExampleTest, CorrectProcessesIntertwined) {
  const FbqsSystem sys = fig1_system();
  // W = {1..7} paper = {0..6}; f = 1... The paper uses the *correct
  // process* form of intertwined (intersection contains a correct process);
  // with the threshold form and f=1 the {5,6,7} quorums intersect in 3 > 1
  // members. Pairwise check over all correct processes:
  NodeSet w = paper_set(8, {1, 2, 3, 4, 5, 6, 7});
  const auto report = sys.check_intertwined(w, 1);
  EXPECT_TRUE(report.ok);
  EXPECT_GT(report.min_intersection, 1u);
}

TEST(Fig1ExampleTest, ConsensusClusters) {
  const FbqsSystem sys = fig1_system();
  const NodeSet w = paper_set(8, {1, 2, 3, 4, 5, 6, 7});
  // C1 = {5,6,7} paper is a consensus cluster.
  EXPECT_TRUE(sys.is_consensus_cluster(paper_set(8, {5, 6, 7}), w, 1));
  // C2 = {1,...,7} paper is the maximal consensus cluster.
  EXPECT_TRUE(sys.is_consensus_cluster(w, w, 1));
  const auto maximal = sys.maximal_consensus_cluster(w, 1);
  ASSERT_TRUE(maximal.has_value());
  EXPECT_EQ(*maximal, w);
  // Subsets that are not clusters: {1,2} paper has no quorum inside.
  EXPECT_FALSE(sys.is_consensus_cluster(paper_set(8, {1, 2}), w, 1));
  // Sets containing the faulty process are not clusters (I must be ⊆ W).
  EXPECT_FALSE(sys.is_consensus_cluster(paper_set(8, {5, 6, 7, 8}), w, 1));
}

TEST(Fig2CounterexampleTest, Theorem2ViolationReproduced) {
  // The heart of the paper's negative result: local slices on the Fig. 2
  // graph yield the disjoint quorums {5,6,7} and {1,2,3,4} (paper ids).
  const FbqsSystem sys = fig2_local_system();
  const NodeSet q1 = paper_set(7, {5, 6, 7});
  const NodeSet q2 = paper_set(7, {1, 2, 3, 4});
  EXPECT_TRUE(sys.is_quorum(q1));
  EXPECT_TRUE(sys.is_quorum(q2));
  EXPECT_EQ(q1.intersection_count(q2), 0u);
  // Hence quorum intersection (threshold form, f = 1) is violated for any
  // member pair across the two quorums.
  EXPECT_FALSE(sys.intertwined(4, 0, 1));  // paper processes 5 and 1
  // And no single maximal consensus cluster containing all correct
  // processes can exist even with zero failures placed: take W = all.
  const auto report = sys.check_intertwined(NodeSet::full(7), 1);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.min_intersection, 0u);
}

TEST(Fig2CounterexampleTest, LocalSlicesSatisfyLemmas1And2) {
  // The counterexample is constructed to satisfy the two necessary
  // conditions (slices within PD_i; a slice avoiding any f = 1 faults), so
  // the violation cannot be blamed on malformed slices.
  const FbqsSystem sys = fig2_local_system();
  const auto g = graph::fig2_graph();
  for (ProcessId i = 0; i < 7; ++i) {
    const QSet& s = sys.slices_of(i);
    EXPECT_TRUE(s.all_members(7).subset_of(g.pd_of(i)));  // Lemma 1
    for (ProcessId b = 0; b < 7; ++b) {
      EXPECT_FALSE(s.blocked_by(NodeSet(7, {b})))         // Lemma 2
          << "i=" << i << " b=" << b;
    }
  }
}

// ---- quorum_closure: removals while iterating (regression) ----

TEST(QuorumClosureTest, RemovalCascadeAcrossWordBoundary) {
  // A dependency chain crossing the 64-bit word boundary: node i's only
  // slice is {i+1}, so unsatisfiability cascades backward from the top,
  // with removals landing on both sides of bit 63/64 — the pattern that a
  // mutate-while-iterating closure walks while the set changes under it.
  // The surviving quorum is a 5-clique straddling the same boundary.
  const std::size_t n = 192;
  FbqsSystem sys(n);
  const NodeSet clique(n, {62, 63, 64, 65, 66});
  for (ProcessId i : clique) {
    sys.set_slices(i, QSet::threshold_of(3, clique));
  }
  for (ProcessId i = 100; i < 140; ++i) {
    sys.set_slices(
        i, QSet::one_of({NodeSet(n, {static_cast<ProcessId>(i + 1)})}));
  }
  // 140's slice needs a process that is never in the candidate, so the
  // cascade starts there and crosses the 127/128 boundary on its way down.
  sys.set_slices(140, QSet::one_of({NodeSet(n, {150})}));

  NodeSet candidate = clique;
  for (ProcessId i = 100; i <= 140; ++i) candidate.add(i);
  const NodeSet closure = sys.quorum_closure(candidate);
  EXPECT_EQ(closure, clique);
  EXPECT_TRUE(sys.is_quorum(closure));

  // Same-pass removals on both sides of the boundary (63 and 64 are both
  // unsatisfied at pass start; 65 only falls after they are gone).
  FbqsSystem boundary(n);
  boundary.set_slices(63, QSet::one_of({NodeSet(n, {10})}));
  boundary.set_slices(64, QSet::one_of({NodeSet(n, {11})}));
  boundary.set_slices(65, QSet::one_of({NodeSet(n, {63})}));
  EXPECT_TRUE(
      boundary.quorum_closure(NodeSet(n, {63, 64, 65})).empty());
}

TEST(QuorumClosureTest, MismatchedUniverseThrows) {
  // The seed silently walked a candidate from a foreign universe —
  // members beyond n_ indexed has_slices_ out of bounds. Now it refuses,
  // and so does Algorithm 1's membership test.
  FbqsSystem sys(8);
  EXPECT_THROW((void)sys.quorum_closure(NodeSet(16)), std::invalid_argument);
  EXPECT_THROW((void)sys.quorum_closure(NodeSet(16, {9})),
               std::invalid_argument);
  EXPECT_THROW((void)sys.is_quorum(NodeSet(16, {9})), std::invalid_argument);
  EXPECT_THROW((void)sys.is_quorum(NodeSet(400, {300})),
               std::invalid_argument);
  EXPECT_THROW((void)sys.is_quorum_for(9, NodeSet(16, {9})),
               std::invalid_argument);
  EXPECT_THROW((void)sys.is_quorum_for(0, NodeSet(16, {9})),
               std::invalid_argument);
}

// ---- check_intertwined: degenerate groups get a well-defined report ----

TEST(CheckIntertwinedTest, EmptyGroupIsVacuouslyOkWithZeroIntersection) {
  FbqsSystem sys = [&] {
    FbqsSystem s(8);
    for (ProcessId i = 0; i < 8; ++i) {
      s.set_slices(i, QSet::threshold_of(1, NodeSet(8, {i})));
    }
    return s;
  }();
  const auto report = sys.check_intertwined(NodeSet(8), /*f=*/1);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.pairs_examined, 0u);
  // Never the old n+1 sentinel: min_intersection is 0 when nothing was
  // compared.
  EXPECT_EQ(report.min_intersection, 0u);
  EXPECT_EQ(report.worst_i, kInvalidProcess);
  EXPECT_EQ(report.worst_j, kInvalidProcess);
}

TEST(CheckIntertwinedTest, SingletonGroupExaminesItsSelfPairs) {
  FbqsSystem sys(4);
  // Process 0 has one quorum {0,1}: the self-pair intersects in 2 > f.
  sys.set_slices(0, QSet::one_of({NodeSet(4, {0, 1})}));
  sys.set_slices(1, QSet::one_of({NodeSet(4, {1})}));
  const auto report = sys.check_intertwined(NodeSet(4, {0}), /*f=*/1);
  EXPECT_TRUE(report.ok);
  EXPECT_GE(report.pairs_examined, 1u);
  EXPECT_LE(report.min_intersection, sys.size());
  EXPECT_EQ(report.worst_i, 0u);
  EXPECT_EQ(report.worst_j, 0u);
}

TEST(CheckIntertwinedTest, MemberWithoutQuorumReportsItself) {
  FbqsSystem sys(4);
  // Process 2's slice can never be satisfied together with 3 missing
  // slices: it has no quorum at all.
  sys.set_slices(2, QSet::one_of({NodeSet(4, {3})}));
  const auto report = sys.check_intertwined(NodeSet(4, {2}), /*f=*/0);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.min_intersection, 0u);
  EXPECT_EQ(report.worst_i, 2u);
  EXPECT_EQ(report.worst_j, 2u);
}

}  // namespace
}  // namespace scup::fbqs
