// CalendarQueue cross-tier ordering: the two-tier queue (per-tick bucket
// ring + per-tick overflow map) must pop in exactly global (time, push
// order) order no matter how events straddle the ring horizon. The delicate
// spots all live at the wrap boundary — events landing at
// cursor + kRingSize - 1 vs cursor + kRingSize, overflow ticks migrating
// into buckets that direct pushes then append to, and the cursor jumping a
// huge gap when the ring drains — so the tests here concentrate pushes
// around that boundary and differential-check against a reference ordered
// structure. Every event is tagged with its push index (in
// timer_generation), and the popped time is read from cursor().
//
// The last test checks that bucket storage is recycled: the binary replaces
// global operator new with a counting shim.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"

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

namespace scup::sim {
namespace {

/// A timer event tagged with its push index.
Event tagged(std::uint64_t index) {
  Event e;
  e.timer_generation = index;
  e.target = 0;
  e.timer_id = static_cast<int>(index & 0x7fffffff);
  e.kind = EventKind::kTimer;
  return e;
}

TEST(CalendarQueueTest, PopsAcrossTheHorizonInTimeSeqOrder) {
  // One event one tick inside the horizon, one exactly on it (overflow),
  // one far beyond: the seam between tiers must be invisible.
  CalendarQueue q;
  const SimTime horizon = static_cast<SimTime>(CalendarQueue::kRingSize);
  q.push(horizon, tagged(1));      // overflow tier
  q.push(horizon - 1, tagged(2));  // last ring bucket
  q.push(3 * horizon, tagged(3));  // deep overflow
  q.push(horizon, tagged(4));      // overflow, same tick as push 1

  EXPECT_EQ(q.next_time(), horizon - 1);
  EXPECT_EQ(q.pop().timer_generation, 2u);
  EXPECT_EQ(q.cursor(), horizon - 1);
  EXPECT_EQ(q.pop().timer_generation, 1u);
  EXPECT_EQ(q.cursor(), horizon);
  EXPECT_EQ(q.pop().timer_generation, 4u);
  EXPECT_EQ(q.cursor(), horizon);
  EXPECT_EQ(q.pop().timer_generation, 3u);
  EXPECT_EQ(q.cursor(), 3 * horizon);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTest, MigratedAndDirectPushesShareABucketInSeqOrder) {
  // An overflow tick migrates into a bucket as the cursor advances; a
  // later direct push at the same timestamp must append after it (the
  // direct push always comes later). Exercises the documented
  // buckets-stay-in-push-order invariant.
  CalendarQueue q;
  const SimTime horizon = static_cast<SimTime>(CalendarQueue::kRingSize);
  const SimTime target = horizon + 10;
  q.push(target, tagged(1));  // beyond horizon: overflow tier
  q.push(20, tagged(2));
  EXPECT_EQ(q.pop().timer_generation, 2u);  // cursor -> 20; target now in
                                            // horizon, so its tick migrated
  EXPECT_EQ(q.cursor(), 20);
  q.push(target, tagged(3));  // direct push into the same bucket
  EXPECT_EQ(q.pop().timer_generation, 1u);
  EXPECT_EQ(q.cursor(), target);
  EXPECT_EQ(q.pop().timer_generation, 3u);
  EXPECT_EQ(q.cursor(), target);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTest, CursorJumpOverAnEmptyGap) {
  // With the ring drained, pop() jumps the cursor to the overflow top
  // instead of scanning the gap; ordering must survive the jump even when
  // the gap is many full ring revolutions long.
  CalendarQueue q;
  const SimTime horizon = static_cast<SimTime>(CalendarQueue::kRingSize);
  q.push(5, tagged(1));
  q.push(1'000 * horizon + 7, tagged(2));
  q.push(1'000 * horizon + 7, tagged(3));
  q.push(1'000 * horizon + 8, tagged(4));
  EXPECT_EQ(q.pop().timer_generation, 1u);
  EXPECT_EQ(q.cursor(), 5);
  EXPECT_EQ(q.next_time(), 1'000 * horizon + 7);
  EXPECT_EQ(q.pop().timer_generation, 2u);
  EXPECT_EQ(q.cursor(), 1'000 * horizon + 7);
  // Pushes after the jump land relative to the advanced cursor.
  q.push(1'000 * horizon + 8, tagged(5));
  EXPECT_EQ(q.pop().timer_generation, 3u);
  EXPECT_EQ(q.cursor(), 1'000 * horizon + 7);
  EXPECT_EQ(q.pop().timer_generation, 4u);
  EXPECT_EQ(q.cursor(), 1'000 * horizon + 8);
  EXPECT_EQ(q.pop().timer_generation, 5u);
  EXPECT_EQ(q.cursor(), 1'000 * horizon + 8);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTest, RandomizedCrossTierDifferential) {
  // Differential fuzz against a std::set ordered by (time, push index). Push
  // times cluster around the wrap boundary (cursor + kRingSize +- a few
  // ticks) so a large fraction of events starts in the overflow tier and
  // migrates across the seam mid-run; interleaved next_time() reads must
  // agree with the reference at every step.
  const SimTime horizon = static_cast<SimTime>(CalendarQueue::kRingSize);
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(0xCA1E'0000 + seed);
    CalendarQueue q;
    std::set<std::pair<SimTime, std::uint64_t>> reference;
    std::uint64_t next_index = 0;
    SimTime cursor = 0;  // mirrors the queue's floor: last popped time
    for (int op = 0; op < 20'000; ++op) {
      const bool do_push = reference.empty() || rng.chance(0.55);
      if (do_push) {
        // Mostly boundary-hugging offsets, occasionally deep overflow or
        // same-tick (delay 0).
        SimTime offset;
        switch (rng.uniform(10)) {
          case 0:
            offset = 0;
            break;
          case 1:
            offset = horizon * static_cast<SimTime>(2 + rng.uniform(5));
            break;
          default:
            offset = horizon - 4 + static_cast<SimTime>(rng.uniform(8));
            break;
        }
        const SimTime t = cursor + offset;
        const std::uint64_t index = next_index++;
        q.push(t, tagged(index));
        reference.emplace(t, index);
      } else {
        ASSERT_EQ(q.next_time(), reference.begin()->first) << "op " << op;
        const Event e = q.pop();
        ASSERT_EQ(q.cursor(), reference.begin()->first) << "op " << op;
        ASSERT_EQ(e.timer_generation, reference.begin()->second)
            << "op " << op;
        cursor = q.cursor();
        reference.erase(reference.begin());
      }
      ASSERT_EQ(q.size(), reference.size());
      ASSERT_EQ(q.empty(), reference.empty());
    }
    // Drain: the tail must come out in exact (time, push order) too.
    while (!reference.empty()) {
      const Event e = q.pop();
      EXPECT_EQ(q.cursor(), reference.begin()->first);
      EXPECT_EQ(e.timer_generation, reference.begin()->second);
      reference.erase(reference.begin());
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(CalendarQueueTest, SteadyChurnReusesBucketStorage) {
  // 15k events in flight, each pop pushing its event again 1-10 ticks
  // later: about 2.7k events land on every tick, and a new bucket opens
  // per tick. A drained bucket's storage goes to the next bucket that
  // opens, so once the warm-up has grown every circulating bucket to fit a
  // tick, ticks 200-1000 allocate nothing. A queue that grows a fresh
  // bucket for every tick allocates about 13 times per tick here.
  constexpr std::size_t kSeedPerTick = 1'500;
  constexpr SimTime kWindowStart = 200;
  constexpr SimTime kWindowEnd = 1'000;
  Rng rng(0xCA1E'0005);
  CalendarQueue q;
  std::uint64_t index = 0;
  for (SimTime t = 1; t <= 10; ++t) {
    for (std::size_t i = 0; i < kSeedPerTick; ++i) q.push(t, tagged(index++));
  }
  std::uint64_t allocs_at_start = 0;
  SimTime last = 0;
  for (;;) {
    Event e = q.pop();
    const SimTime now = q.cursor();
    if (now >= kWindowEnd) break;
    if (last < kWindowStart && now >= kWindowStart) {
      allocs_at_start = g_heap_allocs.load(std::memory_order_relaxed);
    }
    last = now;
    q.push(now + 1 + static_cast<SimTime>(rng.uniform(10)), std::move(e));
  }
  const std::uint64_t window_allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - allocs_at_start;
  EXPECT_EQ(window_allocs, 0u);
  EXPECT_EQ(q.size(), 10 * kSeedPerTick - 1);  // the churn kept its volume
}

}  // namespace
}  // namespace scup::sim
