// Slice families (S_i in the paper) as QSets: threshold_of for Algorithm
// 2's "all m-subsets of V", one_of for hand-written slice lists. Each
// family's satisfaction and blocking are checked against the definition
// by brute force over every subset of a small universe.
#include "fbqs/qset.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

namespace scup::fbqs {
namespace {

/// Calls fn on every subset of {0, ..., universe-1}.
void for_each_subset(std::size_t universe,
                     const std::function<void(const NodeSet&)>& fn) {
  for (std::uint32_t mask = 0; mask < (1u << universe); ++mask) {
    NodeSet s(universe);
    for (ProcessId b = 0; b < universe; ++b) {
      if ((mask >> b) & 1u) s.add(b);
    }
    fn(s);
  }
}

/// Definition 1 over an explicit list: some slice lies inside `q`.
bool some_slice_within(const std::vector<NodeSet>& slices, const NodeSet& q) {
  for (const NodeSet& s : slices) {
    if (s.subset_of(q)) return true;
  }
  return false;
}

/// v-blocking over an explicit list: every slice meets `b`.
bool every_slice_meets(const std::vector<NodeSet>& slices, const NodeSet& b) {
  for (const NodeSet& s : slices) {
    if (!s.intersects(b)) return false;
  }
  return true;
}

/// Checks `q` against the family `slices` it should denote, on every
/// subset of the universe.
void expect_denotes(const QSet& q, const std::vector<NodeSet>& slices,
                    std::size_t universe) {
  for_each_subset(universe, [&](const NodeSet& s) {
    EXPECT_EQ(q.satisfied_by(s), some_slice_within(slices, s))
        << q.to_string() << " on " << s.to_string();
    EXPECT_EQ(q.blocked_by(s), every_slice_meets(slices, s))
        << q.to_string() << " on " << s.to_string();
  });
}

/// Every m-subset of `members`, the family threshold_of(m, members) denotes.
std::vector<NodeSet> all_subsets_of_size(const NodeSet& members,
                                         std::size_t m) {
  std::vector<NodeSet> out;
  for_each_subset(members.universe_size(), [&](const NodeSet& s) {
    if (s.count() == m && s.subset_of(members)) out.push_back(s);
  });
  return out;
}

TEST(SliceSetTest, ExplicitSatisfaction) {
  const std::vector<NodeSet> slices = {NodeSet(6, {1, 2}),
                                       NodeSet(6, {3, 4, 5})};
  const QSet s = QSet::one_of(slices);
  EXPECT_TRUE(s.satisfied_by(NodeSet(6, {0, 1, 2})));
  EXPECT_TRUE(s.satisfied_by(NodeSet(6, {3, 4, 5})));
  EXPECT_FALSE(s.satisfied_by(NodeSet(6, {1, 3, 4})));
  EXPECT_FALSE(s.satisfied_by(NodeSet(6)));
  // 1-of-[|S|-of-S, ...]: one inner set per slice, no top-level validator.
  EXPECT_EQ(s.threshold(), 1u);
  EXPECT_TRUE(s.validators().empty());
  ASSERT_EQ(s.inner_sets().size(), 2u);
  EXPECT_TRUE(s.inner_sets()[1] == QSet::threshold_of(3, slices[1]));
  expect_denotes(s, slices, 6);
}

TEST(SliceSetTest, EmptySliceRejected) {
  EXPECT_THROW(QSet::one_of({NodeSet(4)}), std::invalid_argument);
  EXPECT_THROW(QSet::one_of({NodeSet(4, {1}), NodeSet(4)}),
               std::invalid_argument);
  EXPECT_THROW(QSet::one_of({}), std::invalid_argument);
}

TEST(SliceSetTest, ThresholdSatisfaction) {
  // All 2-subsets of {0,1,2,3}.
  const NodeSet members(6, {0, 1, 2, 3});
  const QSet s = QSet::threshold_of(2, members);
  EXPECT_EQ(s.threshold(), 2u);
  EXPECT_EQ(s.validators(), members.to_vector());
  EXPECT_TRUE(s.inner_sets().empty());
  EXPECT_TRUE(s.satisfied_by(NodeSet(6, {0, 3})));
  EXPECT_TRUE(s.satisfied_by(NodeSet(6, {1, 2, 5})));
  EXPECT_FALSE(s.satisfied_by(NodeSet(6, {0, 4, 5})));
  const auto slices = all_subsets_of_size(members, 2);
  EXPECT_EQ(slices.size(), 6u);  // C(4,2)
  expect_denotes(s, slices, 6);
}

TEST(SliceSetTest, ThresholdValidation) {
  EXPECT_THROW(QSet::threshold_of(3, NodeSet(4, {1, 2})),
               std::invalid_argument);
  // A 0-threshold is the empty qset: satisfied by anything, blocked by
  // nothing (QuorumEngineTest.EmptyQSetSemantics).
  const QSet none = QSet::threshold_of(0, NodeSet(4, {1}));
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(none.satisfied_by(NodeSet(4)));
  EXPECT_FALSE(none.blocked_by(NodeSet::full(4)));
  // m == |members| is fine (single slice).
  const QSet s = QSet::threshold_of(2, NodeSet(4, {1, 2}));
  expect_denotes(s, {NodeSet(4, {1, 2})}, 4);
}

TEST(SliceSetTest, BlockedBy) {
  const NodeSet members(8, {0, 1, 2, 3});
  const QSet threshold = QSet::threshold_of(3, members);
  // A slice avoiding B exists iff >= 3 members survive.
  EXPECT_FALSE(threshold.blocked_by(NodeSet(8, {0})));
  EXPECT_TRUE(threshold.blocked_by(NodeSet(8, {0, 1})));
  EXPECT_FALSE(threshold.blocked_by(NodeSet(8, {3})));
  expect_denotes(threshold, all_subsets_of_size(members, 3), 8);

  const std::vector<NodeSet> slices = {NodeSet(8, {1, 2}), NodeSet(8, {2, 3})};
  const QSet expl = QSet::one_of(slices);
  EXPECT_TRUE(expl.blocked_by(NodeSet(8, {2})));   // 2 is in every slice
  EXPECT_FALSE(expl.blocked_by(NodeSet(8, {1})));  // {2,3} avoids
  expect_denotes(expl, slices, 8);
}

TEST(SliceSetTest, Lemma2Check) {
  // Lemma 2: process must have a slice avoiding every candidate faulty set
  // of size <= f. Threshold family m-of-V survives any f faults iff
  // |V| - f >= m.
  const NodeSet v(10, {0, 1, 2, 3, 4});
  const QSet s = QSet::threshold_of(3, v);
  // f = 2: |V| - 2 = 3 >= 3 ok for any B of size 2.
  EXPECT_FALSE(s.blocked_by(NodeSet(10, {0, 1})));
  EXPECT_FALSE(s.blocked_by(NodeSet(10, {3, 4})));
  // f = 3 violates.
  EXPECT_TRUE(s.blocked_by(NodeSet(10, {0, 1, 2})));
}

TEST(SliceSetTest, UnionOfMembers) {
  const QSet expl = QSet::one_of({NodeSet(6, {1, 2}), NodeSet(6, {2, 5})});
  EXPECT_EQ(expl.all_members(6), NodeSet(6, {1, 2, 5}));
  const QSet thr = QSet::threshold_of(1, NodeSet(6, {0, 4}));
  EXPECT_EQ(thr.all_members(6), NodeSet(6, {0, 4}));
}

TEST(SliceSetTest, SliceCountBinomialSaturation) {
  // 64-of-128 denotes C(128, 64) slices, past any std::size_t count; the
  // QSet stays 128 validators and answers by counting members.
  NodeSet big(128);
  for (ProcessId i = 0; i < 128; ++i) big.add(i);
  const QSet s = QSet::threshold_of(64, big);
  NodeSet half(128);
  for (ProcessId i = 0; i < 128; i += 2) half.add(i);
  EXPECT_TRUE(s.satisfied_by(half));
  half.remove(0);
  EXPECT_FALSE(s.satisfied_by(half));
}

TEST(SliceSetTest, AccessorsThrowOnWrongKind) {
  // Every accessor answers on both kinds; the only malformed input left is
  // a list with nothing to pick from, which QSet's threshold check rejects.
  const QSet thr = QSet::threshold_of(1, NodeSet(4, {0}));
  EXPECT_TRUE(thr.inner_sets().empty());
  const QSet expl = QSet::one_of({NodeSet(4, {0})});
  EXPECT_TRUE(expl.validators().empty());
  EXPECT_EQ(expl.threshold(), 1u);
  EXPECT_THROW(QSet::one_of({}), std::invalid_argument);
  EXPECT_THROW(QSet(1, {}, {}), std::invalid_argument);
}

TEST(SliceSetTest, ToQSetEquivalence) {
  // The two factories denote the same family when given the same slices:
  // a threshold family and the explicit list of all its m-subsets satisfy
  // and are blocked by exactly the same sets.
  const NodeSet members(5, {0, 1, 2, 3});
  const QSet thr = QSet::threshold_of(2, members);
  const QSet expl = QSet::one_of(all_subsets_of_size(members, 2));
  for_each_subset(5, [&](const NodeSet& s) {
    EXPECT_EQ(thr.satisfied_by(s), expl.satisfied_by(s)) << s.to_string();
    EXPECT_EQ(thr.blocked_by(s), expl.blocked_by(s)) << s.to_string();
  });
}

}  // namespace
}  // namespace scup::fbqs
