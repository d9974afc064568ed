#include "common/node_set.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"

// Counting shims for this binary, so the storage tests can assert how many
// heap blocks a set operation takes. gtest allocates too, so every check
// counts only across the statements under test.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace scup {
namespace {

/// Heap allocations made while running `body`.
template <typename Body>
std::uint64_t allocs_during(Body&& body) {
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  body();
  return g_heap_allocs.load(std::memory_order_relaxed) - before;
}

TEST(NodeSetTest, EmptyByDefault) {
  NodeSet s(10);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.universe_size(), 10u);
  EXPECT_EQ(s.min_member(), kInvalidProcess);
}

TEST(NodeSetTest, AddRemoveContains) {
  NodeSet s(100);
  s.add(0);
  s.add(63);
  s.add(64);
  s.add(99);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(63));
  EXPECT_TRUE(s.contains(64));
  EXPECT_TRUE(s.contains(99));
  EXPECT_FALSE(s.contains(50));
  s.remove(63);
  EXPECT_FALSE(s.contains(63));
  EXPECT_EQ(s.count(), 3u);
  // Removing a non-member or out-of-range id is a no-op.
  s.remove(63);
  s.remove(1000);
  EXPECT_EQ(s.count(), 3u);
}

TEST(NodeSetTest, AddOutOfRangeThrows) {
  NodeSet s(8);
  EXPECT_THROW(s.add(8), std::out_of_range);
  EXPECT_THROW(s.add(1000), std::out_of_range);
}

TEST(NodeSetTest, InitializerListAndVectorConstruction) {
  NodeSet a(8, {1, 3, 5});
  NodeSet b(8, std::vector<ProcessId>{1, 3, 5});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.count(), 3u);
}

TEST(NodeSetTest, FullSet) {
  for (std::size_t n : {0u, 1u, 63u, 64u, 65u, 130u}) {
    NodeSet s = NodeSet::full(n);
    EXPECT_EQ(s.count(), n) << "n=" << n;
    if (n > 0) {
      EXPECT_TRUE(s.contains(0));
      EXPECT_TRUE(s.contains(static_cast<ProcessId>(n - 1)));
    }
  }
}

TEST(NodeSetTest, SetAlgebra) {
  NodeSet a(10, {1, 2, 3});
  NodeSet b(10, {3, 4, 5});
  EXPECT_EQ((a | b), NodeSet(10, {1, 2, 3, 4, 5}));
  EXPECT_EQ((a & b), NodeSet(10, {3}));
  EXPECT_EQ((a - b), NodeSet(10, {1, 2}));
  EXPECT_EQ((b - a), NodeSet(10, {4, 5}));
}

TEST(NodeSetTest, MismatchedUniverseThrows) {
  NodeSet a(10);
  NodeSet b(11);
  EXPECT_THROW(a |= b, std::invalid_argument);
  EXPECT_THROW(a &= b, std::invalid_argument);
  EXPECT_THROW((void)a.subset_of(b), std::invalid_argument);
}

TEST(NodeSetTest, Complement) {
  NodeSet a(5, {0, 2, 4});
  EXPECT_EQ(a.complement(), NodeSet(5, {1, 3}));
  EXPECT_EQ(a.complement().complement(), a);
}

TEST(NodeSetTest, SubsetAndIntersection) {
  NodeSet a(10, {1, 2});
  NodeSet b(10, {1, 2, 3});
  NodeSet c(10, {4, 5});
  EXPECT_TRUE(a.subset_of(b));
  EXPECT_FALSE(b.subset_of(a));
  EXPECT_TRUE(b.superset_of(a));
  EXPECT_TRUE(a.subset_of(a));
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.intersects(c));
  EXPECT_EQ(a.intersection_count(b), 2u);
  EXPECT_EQ(b.intersection_count(c), 0u);
}

TEST(NodeSetTest, IterationInOrder) {
  NodeSet s(200, {0, 7, 63, 64, 128, 199});
  std::vector<ProcessId> got;
  for (ProcessId p : s) got.push_back(p);
  EXPECT_EQ(got, (std::vector<ProcessId>{0, 7, 63, 64, 128, 199}));
  EXPECT_EQ(s.to_vector(), got);
}

TEST(NodeSetTest, MinMember) {
  NodeSet s(100);
  s.add(77);
  EXPECT_EQ(s.min_member(), 77u);
  s.add(12);
  EXPECT_EQ(s.min_member(), 12u);
}

TEST(NodeSetTest, OrderingAndHash) {
  NodeSet a(10, {1});
  NodeSet b(10, {2});
  EXPECT_NE(a, b);
  EXPECT_TRUE(a < b || b < a);
  std::set<NodeSet> set;
  set.insert(a);
  set.insert(b);
  set.insert(a);
  EXPECT_EQ(set.size(), 2u);
}

TEST(NodeSetTest, ToString) {
  NodeSet s(10, {1, 5});
  EXPECT_EQ(s.to_string(), "{1, 5}");
  EXPECT_EQ(NodeSet(4).to_string(), "{}");
}

// Property test: random sets obey basic identities.
class NodeSetPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NodeSetPropertyTest, AlgebraIdentities) {
  Rng rng(GetParam());
  const std::size_t n = 1 + rng.uniform(300);
  NodeSet a(n), b(n);
  for (ProcessId p = 0; p < n; ++p) {
    if (rng.chance(0.4)) a.add(p);
    if (rng.chance(0.4)) b.add(p);
  }
  // De Morgan.
  EXPECT_EQ((a | b).complement(), (a.complement() & b.complement()));
  EXPECT_EQ((a & b).complement(), (a.complement() | b.complement()));
  // Difference via complement.
  EXPECT_EQ(a - b, a & b.complement());
  // Inclusion-exclusion on counts.
  EXPECT_EQ((a | b).count() + (a & b).count(), a.count() + b.count());
  // Intersection count consistency.
  EXPECT_EQ(a.intersection_count(b), (a & b).count());
  // Subset characterization.
  EXPECT_EQ(a.subset_of(b), (a - b).empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, NodeSetPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 33));

// ---- Word-boundary and degenerate-universe edge cases ----

TEST(NodeSetEdgeCaseTest, FullWithMultipleOf64Universe) {
  // universe % 64 == 0 means "no partial last word": the clear-tail-bits
  // step must be a no-op, not a 1ULL << 64 shift.
  for (const std::size_t universe : {64u, 128u, 192u}) {
    const NodeSet s = NodeSet::full(universe);
    EXPECT_EQ(s.count(), universe) << universe;
    EXPECT_TRUE(s.contains(0)) << universe;
    EXPECT_TRUE(s.contains(static_cast<ProcessId>(universe - 1))) << universe;
    EXPECT_FALSE(s.contains(static_cast<ProcessId>(universe))) << universe;
    EXPECT_TRUE(s.complement().empty()) << universe;
  }
}

TEST(NodeSetEdgeCaseTest, NextMemberAcrossWordBoundaries) {
  NodeSet s(200, {0, 63, 64, 127, 128, 191});
  // Iteration enumerates exactly the members, in order, across all three
  // word boundaries.
  const std::vector<ProcessId> expected{0, 63, 64, 127, 128, 191};
  EXPECT_EQ(s.to_vector(), expected);
  // min_member after removing the first member of a word must find the
  // next word's first member.
  s.remove(0);
  EXPECT_EQ(s.min_member(), 63u);
  s.remove(63);
  EXPECT_EQ(s.min_member(), 64u);
  s.remove(64);
  EXPECT_EQ(s.min_member(), 127u);
}

TEST(NodeSetEdgeCaseTest, IterationOverExactlyWordSizedUniverse) {
  NodeSet s(64, {63});
  std::size_t visits = 0;
  for (ProcessId p : s) {
    EXPECT_EQ(p, 63u);
    ++visits;
  }
  EXPECT_EQ(visits, 1u);
}

TEST(NodeSetEdgeCaseTest, UniverseZero) {
  NodeSet s(0);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.min_member(), kInvalidProcess);
  EXPECT_FALSE(s.contains(0));
  EXPECT_TRUE(s.begin() == s.end());
  EXPECT_TRUE(s.to_vector().empty());
  EXPECT_EQ(NodeSet::full(0).count(), 0u);
  EXPECT_TRUE(s.complement().empty());
  EXPECT_EQ(s, NodeSet::full(0));
  EXPECT_THROW(s.add(0), std::out_of_range);
}

TEST(NodeSetEdgeCaseTest, ComplementNeverSetsBitsPastTheUniverse) {
  for (const std::size_t universe : {1u, 63u, 64u, 65u, 100u, 128u}) {
    const NodeSet none(universe);
    const NodeSet all = none.complement();
    EXPECT_EQ(all.count(), universe) << universe;
    EXPECT_EQ(all, NodeSet::full(universe)) << universe;
    // Every member enumerated by iteration must be a legal id; a stray
    // tail bit would surface here as id >= universe.
    for (ProcessId p : all) {
      EXPECT_LT(p, universe);
    }
    // Complement of complement round-trips (tail bits would survive the
    // subtraction and break this).
    EXPECT_EQ(all.complement(), none) << universe;
    EXPECT_EQ(all.complement().count(), 0u) << universe;
  }
}

// ---- Storage: inline words up to 256 ids, one heap block beyond ----

// Universe sizes on both sides of every word boundary and of the 256-id
// inline bound.
constexpr std::size_t kSizes[] = {0, 1, 63, 64, 65, 255, 256, 257, 300, 1000};

/// The reference model: one bool per id.
struct ModelSet {
  std::vector<bool> bits;

  std::vector<ProcessId> members() const {
    std::vector<ProcessId> out;
    for (std::size_t i = 0; i < bits.size(); ++i) {
      if (bits[i]) out.push_back(static_cast<ProcessId>(i));
    }
    return out;
  }
};

/// A random set over `universe` and its model.
std::pair<NodeSet, ModelSet> random_pair(std::size_t universe, Rng& rng) {
  NodeSet set(universe);
  ModelSet model{std::vector<bool>(universe, false)};
  const double density = rng.chance(0.5) ? 0.1 : 0.6;
  for (std::size_t i = 0; i < universe; ++i) {
    if (rng.chance(density)) {
      set.add(static_cast<ProcessId>(i));
      model.bits[i] = true;
    }
  }
  return {std::move(set), std::move(model)};
}

/// Empty string when `set` matches `model` on every observable.
std::string mismatch(const NodeSet& set, const ModelSet& model) {
  const std::vector<ProcessId> members = model.members();
  if (set.universe_size() != model.bits.size()) return "universe";
  if (set.count() != members.size()) return "count";
  if (set.empty() != members.empty()) return "empty";
  if (set.to_vector() != members) return "iteration";
  const ProcessId min = members.empty() ? kInvalidProcess : members.front();
  if (set.min_member() != min) return "min_member";
  for (std::size_t i = 0; i < model.bits.size() + 2; ++i) {
    const bool expected = i < model.bits.size() && model.bits[i];
    if (set.contains(static_cast<ProcessId>(i)) != expected) {
      return "contains(" + std::to_string(i) + ")";
    }
  }
  return "";
}

TEST(NodeSetStorageTest, MatchesVectorBoolModel) {
  Rng rng(77);
  for (const std::size_t universe : kSizes) {
    auto [set, model] = random_pair(universe, rng);
    for (int step = 0; step < 300; ++step) {
      auto [other, other_model] = random_pair(universe, rng);
      const auto id = static_cast<ProcessId>(rng.uniform(universe + 3));
      switch (rng.uniform(8)) {
        case 0:
          if (id < universe) {
            set.add(id);
            model.bits[id] = true;
          } else {
            EXPECT_THROW(set.add(id), std::out_of_range);
          }
          break;
        case 1:
          set.remove(id);
          if (id < universe) model.bits[id] = false;
          break;
        case 2:
          set |= other;
          for (std::size_t i = 0; i < universe; ++i) {
            model.bits[i] = model.bits[i] || other_model.bits[i];
          }
          break;
        case 3:
          set &= other;
          for (std::size_t i = 0; i < universe; ++i) {
            model.bits[i] = model.bits[i] && other_model.bits[i];
          }
          break;
        case 4:
          set -= other;
          for (std::size_t i = 0; i < universe; ++i) {
            model.bits[i] = model.bits[i] && !other_model.bits[i];
          }
          break;
        case 5:
          set = set.complement();
          model.bits.flip();
          break;
        default: {
          // Queries against a random set and against a superset.
          bool subset = true;
          bool meets = false;
          for (std::size_t i = 0; i < universe; ++i) {
            subset = subset && (!model.bits[i] || other_model.bits[i]);
            meets = meets || (model.bits[i] && other_model.bits[i]);
          }
          EXPECT_EQ(set.subset_of(other), subset) << universe;
          EXPECT_EQ(set.intersects(other), meets) << universe;
          EXPECT_TRUE(set.subset_of(set | other)) << universe;
          EXPECT_EQ(set.intersects(set), !set.empty()) << universe;
          break;
        }
      }
      ASSERT_EQ(mismatch(set, model), "")
          << "universe=" << universe << " step=" << step;
    }
  }
}

TEST(NodeSetStorageTest, CopyAndMoveBetweenEveryPairOfUniverses) {
  Rng rng(78);
  for (const std::size_t from : kSizes) {
    for (const std::size_t to : kSizes) {
      SCOPED_TRACE("from=" + std::to_string(from) +
                   " to=" + std::to_string(to));
      const auto [source, source_model] = random_pair(from, rng);
      const auto [target, target_model] = random_pair(to, rng);

      const NodeSet copied(source);
      EXPECT_EQ(mismatch(copied, source_model), "");
      EXPECT_EQ(mismatch(source, source_model), "");
      EXPECT_EQ(copied, source);

      NodeSet assigned = target;
      assigned = source;
      EXPECT_EQ(mismatch(assigned, source_model), "");
      EXPECT_EQ(mismatch(source, source_model), "");

      NodeSet moved_from = source;
      const NodeSet moved(std::move(moved_from));
      EXPECT_EQ(mismatch(moved, source_model), "");
      if (from > 256) {  // a moved-from heap set is the universe-0 set
        EXPECT_EQ(moved_from.universe_size(), 0u);
        EXPECT_TRUE(moved_from.empty());
        EXPECT_TRUE(moved_from.begin() == moved_from.end());
      }

      NodeSet move_assigned = target;
      NodeSet move_source = source;
      move_assigned = std::move(move_source);
      EXPECT_EQ(mismatch(move_assigned, source_model), "");
      // A moved-from set takes both kinds of assignment.
      move_source = target;
      EXPECT_EQ(mismatch(move_source, target_model), "");
      NodeSet spare = source;
      moved_from = std::move(spare);
      EXPECT_EQ(mismatch(moved_from, source_model), "");

      // Self-assignment, through a reference so no warning fires.
      NodeSet& alias = assigned;
      assigned = alias;
      EXPECT_EQ(mismatch(assigned, source_model), "");
      assigned = std::move(alias);
      EXPECT_EQ(mismatch(assigned, source_model), "");
    }
  }
}

TEST(NodeSetStorageTest, SetsUpTo256IdsNeverAllocate) {
  for (const std::size_t universe : {0u, 1u, 63u, 64u, 65u, 255u, 256u}) {
    const NodeSet filled = NodeSet::full(universe);
    const NodeSet other(universe);
    std::size_t members = 0;
    const std::uint64_t allocs = allocs_during([&] {
      NodeSet built(universe);
      NodeSet listed = universe > 0 ? NodeSet(universe, {0}) : NodeSet(0);
      NodeSet copy(filled);
      NodeSet moved(std::move(copy));
      built = filled;
      listed = std::move(moved);
      built |= other;
      built &= filled;
      built -= other;
      const NodeSet combined = (built | other) - (listed & filled);
      const NodeSet complement = combined.complement();
      members = combined.count() + complement.count() +
                NodeSet::full(universe).count();
    });
    EXPECT_EQ(allocs, 0u) << "universe=" << universe;
    EXPECT_EQ(members, 2 * universe) << "universe=" << universe;
  }
}

TEST(NodeSetStorageTest, HeapSetsAllocateOneBlockPerCopyAndNonePerMove) {
  const NodeSet big = NodeSet::full(257);
  EXPECT_EQ(allocs_during([&] { const NodeSet copy(big); }), 1u);
  const std::uint64_t into_inline = allocs_during([&] {
    NodeSet inline_target(8);
    inline_target = big;
  });
  EXPECT_EQ(into_inline, 1u);
  // Copy-assignment keeps the target's block when the word count matches
  // (257 and 300 ids both take five words) and replaces it otherwise.
  NodeSet same_words = NodeSet::full(300);
  EXPECT_EQ(allocs_during([&] { same_words = big; }), 0u);
  EXPECT_EQ(same_words, big);
  NodeSet more_words(1000);
  EXPECT_EQ(allocs_during([&] { more_words = big; }), 1u);
  EXPECT_EQ(more_words, big);
  NodeSet fewer_words = big;
  const NodeSet huge = NodeSet::full(1000);
  EXPECT_EQ(allocs_during([&] { fewer_words = huge; }), 1u);
  EXPECT_EQ(fewer_words, huge);

  NodeSet source = big;
  NodeSet target(8);
  const std::uint64_t moves = allocs_during([&] {
    NodeSet moved(std::move(source));
    target = std::move(moved);
  });
  EXPECT_EQ(moves, 0u);
  EXPECT_EQ(target, big);
}

}  // namespace
}  // namespace scup
