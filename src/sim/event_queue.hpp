// The simulation's event queue: a two-tier indexed calendar queue (after
// Brown, "Calendar queues", CACM 1988).
//
// Delivery delays are small and bounded in the common case (<= max_delay
// after GST, <= pre_gst_max_delay before), so almost every event lands
// within a short horizon of the current time: a ring of per-tick buckets
// turns push into an append and pop into a bitmap scan. Events beyond the
// horizon (far timers, partition heals) wait in an ordered overflow map, one
// vector per tick, and migrate into the ring a whole tick at a time as the
// cursor advances.
//
// Pop order is (time, push order), and both keys are structural, so an
// Event stores neither:
//  - a ring bucket holds the events of one tick (bucket width is one tick,
//    the ring never spans more than kRingSize ticks, and events are only
//    pushed at or after the cursor), appended in push order;
//  - a tick beyond the horizon collects its pushes in its overflow vector,
//    in push order. It migrates as a whole into its ring slot as soon as a
//    pop brings it inside the horizon, before any further push: the slot is
//    empty then (every earlier push at that tick went to overflow, and the
//    slot's previous tick lies before the cursor), and later direct pushes
//    append after the migrated events.
//
// Storage is recycled: a drained bucket hands its vector to a spare stack,
// and a bucket or overflow tick that opens takes the most recent spare,
// whose memory is warm. Storage is then bounded by the ticks in flight, not
// by the ticks of the run.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <vector>

#include "common/types.hpp"
#include "sim/message.hpp"

namespace scup::sim {

enum class EventKind : std::uint8_t { kDeliver, kTimer, kActivate, kCrash };

/// One queued event. Its time and its rank among same-tick events are where
/// the queue keeps it.
struct Event {
  MessagePtr msg;                      // kDeliver
  std::uint64_t timer_generation = 0;  // kTimer
  ProcessId target = kInvalidProcess;
  ProcessId from = kInvalidProcess;  // kDeliver
  int timer_id = 0;                  // kTimer
  EventKind kind = EventKind::kDeliver;
};
static_assert(sizeof(Event) == 40, "Event must stay 40 bytes");

class CalendarQueue {
 public:
  /// Ring horizon in ticks (power of two). Events within
  /// [cursor, cursor + kRingSize) live in per-tick buckets; everything
  /// beyond waits in the overflow map.
  static constexpr std::size_t kRingSize = 1024;

  CalendarQueue() : ring_(kRingSize), heads_(kRingSize, 0) {
    occupied_.fill(0);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Time of the last popped event (0 before the first pop): the floor for
  /// every push.
  SimTime cursor() const { return cursor_; }

  /// Queues `e` at time `at`, after every event already queued at `at`.
  /// Requires at >= cursor().
  void push(SimTime at, Event&& e) {
    ++size_;
    peeked_slot_ = kNoPeek;  // the new event may undercut the peeked one
    if (at < cursor_ + static_cast<SimTime>(kRingSize)) {
      const std::size_t slot = slot_of(at);
      std::vector<Event>& bucket = ring_[slot];
      if (bucket.empty()) open(slot, take_spare());
      bucket.push_back(std::move(e));
    } else {
      auto [tick, fresh] = overflow_.try_emplace(at);
      if (fresh) tick->second = take_spare();
      tick->second.push_back(std::move(e));
    }
  }

  /// Time of the earliest event, without consuming it. Does not move the
  /// cursor, so events may still be pushed anywhere at or after the last
  /// popped time (e.g. a crash scheduled between run calls). Requires
  /// !empty().
  SimTime next_time() {
    // Every overflow tick lies at or beyond the horizon (pop() migrates
    // after each cursor advance), so the earliest occupied bucket, if any,
    // is the global minimum.
    if (ring_count_ == 0) return overflow_.begin()->first;
    peeked_slot_ = next_occupied(slot_of(cursor_));
    return time_of(peeked_slot_);
  }

  /// Pops the earliest event and moves the cursor to its time. Requires
  /// !empty().
  Event pop() {
    std::size_t slot;
    if (peeked_slot_ != kNoPeek) {
      // The usual run-loop shape is next_time-then-pop with nothing in
      // between; reuse next_time's scan.
      slot = peeked_slot_;
    } else {
      if (ring_count_ == 0) {
        // Jump the cursor instead of scanning a (possibly huge) gap. Safe
        // to commit here: the popped event's time becomes the simulation's
        // `now`, the floor for every future push.
        cursor_ = overflow_.begin()->first;
        migrate_overflow();
      }
      slot = next_occupied(slot_of(cursor_));
    }
    peeked_slot_ = kNoPeek;
    cursor_ = time_of(slot);
    std::vector<Event>& bucket = ring_[slot];
    Event e = std::move(bucket[heads_[slot]++]);
    if (heads_[slot] == bucket.size()) {
      bucket.clear();
      spare_.push_back(std::move(bucket));  // leaves the slot empty
      heads_[slot] = 0;
      occupied_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
      --ring_count_;
    }
    --size_;
    // Migrate against the advanced cursor before the event is dispatched,
    // so a push during dispatch never reaches a tick whose earlier pushes
    // still wait in overflow.
    migrate_overflow();
    return e;
  }

 private:
  static std::size_t slot_of(SimTime t) {
    return static_cast<std::size_t>(t) & (kRingSize - 1);
  }

  /// Absolute time of the (occupied) bucket at `slot`, given that every
  /// ring event lies in the window [cursor_, cursor_ + kRingSize).
  SimTime time_of(std::size_t slot) const {
    return cursor_ + static_cast<SimTime>((slot - slot_of(cursor_)) &
                                          (kRingSize - 1));
  }

  /// The most recently drained bucket's storage, or none.
  std::vector<Event> take_spare() {
    if (spare_.empty()) return {};
    std::vector<Event> storage = std::move(spare_.back());
    spare_.pop_back();
    return storage;
  }

  /// Installs `events` (non-empty, or empty storage to append to) as the
  /// bucket of the empty slot `slot`.
  void open(std::size_t slot, std::vector<Event>&& events) {
    ring_[slot] = std::move(events);
    occupied_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    ++ring_count_;
  }

  /// Moves every overflow tick now inside the ring horizon, whole, into its
  /// (empty) ring slot.
  void migrate_overflow() {
    const SimTime horizon = cursor_ + static_cast<SimTime>(kRingSize);
    while (!overflow_.empty() && overflow_.begin()->first < horizon) {
      auto tick = overflow_.begin();
      open(slot_of(tick->first), std::move(tick->second));
      overflow_.erase(tick);
    }
  }

  /// First occupied slot at or cyclically after `from`. Requires
  /// ring_count_ > 0.
  std::size_t next_occupied(std::size_t from) const {
    constexpr std::size_t kWords = kRingSize / 64;
    std::size_t word = from >> 6;
    // Mask off bits below `from` in its word.
    std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (from & 63));
    for (std::size_t i = 0; i <= kWords; ++i) {
      if (bits != 0) {
        return (word << 6) +
               static_cast<std::size_t>(std::countr_zero(bits));
      }
      word = (word + 1) & (kWords - 1);
      bits = occupied_[word];
    }
    return from;  // unreachable when ring_count_ > 0
  }

  static constexpr std::size_t kNoPeek = kRingSize;

  std::vector<std::vector<Event>> ring_;
  std::vector<std::size_t> heads_;  // per-bucket consumed prefix
  std::array<std::uint64_t, kRingSize / 64> occupied_{};
  SimTime cursor_ = 0;  // no queued event is earlier than this
  std::size_t ring_count_ = 0;  // occupied buckets
  std::size_t size_ = 0;
  std::size_t peeked_slot_ = kNoPeek;  // next_time's scan, reused by pop
  std::vector<std::vector<Event>> spare_;  // drained buckets' storage
  std::map<SimTime, std::vector<Event>> overflow_;  // ticks past the horizon
};

}  // namespace scup::sim
