// Event-loop microbenchmarks: the cost of the simulator hot path itself,
// independent of any protocol.
//
//  - RunUntil rows measure the per-event predicate overhead of run_until:
//    the historical std::function signature vs. the templated overload vs.
//    a check-every-k stride, over an identical message storm. The
//    predicate scans all processes, which is exactly what run_scenario's
//    all-decided check does — the stride knob is what large-n sweeps use.
//  - EventQueue rows compare the indexed calendar queue against the
//    std::priority_queue it replaced on the simulator's actual workload
//    shape (bounded delays, FIFO within a tick), and time a one-shot burst
//    on a fresh queue: the shape of one scenario cell, where no ring slot
//    is ever revisited. The binary replaces global operator new/delete with
//    counting shims, so the burst row also reports measured heap
//    allocations per tick.
#include "bench_common.hpp"

#include <functional>
#include <queue>

#include "heap_meter.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"
#include "sim/wire.hpp"

namespace scup {
namespace {

using bench::heap_allocs;

/// An empty payload: a 2-byte frame. The id is from the test-only range
/// (0xF000 up), clear of every production id.
struct StormMsg final : sim::Message {
  std::string_view type_name() const override { return "bench.storm"; }
  static constexpr std::uint16_t kWireType = 0xF006;
  std::uint16_t wire_type() const override { return kWireType; }
  void wire_encode(sim::WireWriter& /*w*/) const override {}
};

/// Each process forwards every message to a random peer, seeding the storm
/// with one initial send; the storm sustains itself forever.
class StormNode : public sim::Process {
 public:
  StormNode(std::size_t n, bool seed_storm, Rng rng)
      : n_(n), seed_storm_(seed_storm), rng_(rng) {}
  void start() override {
    if (seed_storm_) {
      send(static_cast<ProcessId>(rng_.uniform(n_)),
           sim::make_message<StormMsg>());
    }
  }
  void on_message(ProcessId, const sim::MessagePtr&) override {
    ++received;
    send(static_cast<ProcessId>(rng_.uniform(n_)),
         sim::make_message<StormMsg>());
  }
  std::size_t received = 0;

 private:
  std::size_t n_;
  bool seed_storm_;
  Rng rng_;
};

constexpr std::size_t kStormNodes = 32;
constexpr std::size_t kStormTarget = 20'000;

std::unique_ptr<sim::Simulation> make_storm(std::vector<StormNode*>& nodes) {
  sim::NetworkConfig net;
  net.min_delay = 1;
  net.max_delay = 10;
  net.seed = 99;
  auto sim = std::make_unique<sim::Simulation>(kStormNodes, net);
  // One substream per process, split in id order from the run seed.
  Rng seeder(net.seed ^ 0x5eedULL);
  nodes.assign(kStormNodes, nullptr);
  for (ProcessId i = 0; i < kStormNodes; ++i) {
    nodes[i] = &sim->emplace_process<StormNode>(i, kStormNodes, i < 4,
                                                seeder.split());
  }
  return sim;
}

/// The all-processes scan predicate run_scenario uses, parameterized over
/// how run_until consumes it.
template <typename RunPolicy>
void run_until_bench(benchmark::State& state, RunPolicy&& run) {
  std::size_t events = 0;
  for (auto _ : state) {
    std::vector<StormNode*> nodes;
    const auto sim = make_storm(nodes);
    sim->start();
    auto total_received = [&nodes] {
      std::size_t total = 0;
      for (const StormNode* node : nodes) total += node->received;
      return total;
    };
    const bool ok =
        run(*sim, [&] { return total_received() >= kStormTarget; });
    benchmark::DoNotOptimize(ok);
    events += sim->metrics().events_processed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events_per_run"] =
      static_cast<double>(events) /
      static_cast<double>(state.iterations());
}

void BM_RunUntil_StdFunction(benchmark::State& state) {
  // The historical signature: the predicate crosses a std::function
  // boundary on every check (type erasure beats inlining).
  run_until_bench(state, [](sim::Simulation& sim, auto&& pred) {
    const std::function<bool()> erased = pred;
    return sim.run_until(erased, 100'000'000);
  });
}
BENCHMARK(BM_RunUntil_StdFunction)->Unit(benchmark::kMillisecond);

void BM_RunUntil_Template(benchmark::State& state) {
  // Same predicate, passed as-is: the templated run_until inlines it.
  run_until_bench(state, [](sim::Simulation& sim, auto&& pred) {
    return sim.run_until(pred, 100'000'000);
  });
}
BENCHMARK(BM_RunUntil_Template)->Unit(benchmark::kMillisecond);

void BM_RunUntil_Stride(benchmark::State& state) {
  // Check every k events: the O(n) scan stops dominating the event loop.
  const auto stride = static_cast<std::size_t>(state.range(0));
  run_until_bench(state, [stride](sim::Simulation& sim, auto&& pred) {
    return sim.run_until(pred, 100'000'000, stride);
  });
  state.counters["stride"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RunUntil_Stride)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

// ---- raw queue comparison on the simulator's workload shape ----

/// The replaced heap's element: the calendar queue keeps an event's time
/// and push rank implicitly, the heap needs both as sort keys.
struct TimedEvent {
  SimTime time = 0;
  std::uint64_t seq = 0;
  sim::Event event;
};

struct TimedLater {
  bool operator()(const TimedEvent& a, const TimedEvent& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

template <typename PushPop>
void queue_bench(benchmark::State& state, PushPop&& ops) {
  // Steady-state churn: keep ~4k events in flight, pop one, push one with
  // a bounded random delay — the delivery pattern of a running simulation.
  const std::size_t kInFlight = 4'096;
  const std::size_t kOps = 100'000;
  Rng rng(7);
  std::size_t processed = 0;
  for (auto _ : state) {
    processed += ops(rng, kInFlight, kOps);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
}

void BM_EventQueue_Calendar(benchmark::State& state) {
  queue_bench(state, [](Rng& rng, std::size_t in_flight, std::size_t ops) {
    sim::CalendarQueue queue;
    for (std::size_t i = 0; i < in_flight; ++i) {
      queue.push(1 + static_cast<SimTime>(rng.uniform(200)), sim::Event{});
    }
    SimTime now = 0;
    for (std::size_t i = 0; i < ops; ++i) {
      sim::Event e = queue.pop();
      now = queue.cursor();
      queue.push(now + 1 + static_cast<SimTime>(rng.uniform(200)),
                 std::move(e));
    }
    benchmark::DoNotOptimize(now);
    return ops;
  });
}
BENCHMARK(BM_EventQueue_Calendar);

void BM_EventQueue_PriorityQueue(benchmark::State& state) {
  queue_bench(state, [](Rng& rng, std::size_t in_flight, std::size_t ops) {
    std::priority_queue<TimedEvent, std::vector<TimedEvent>, TimedLater>
        queue;
    std::uint64_t seq = 0;
    SimTime now = 0;
    for (std::size_t i = 0; i < in_flight; ++i) {
      TimedEvent e;
      e.time = now + 1 + static_cast<SimTime>(rng.uniform(200));
      e.seq = seq++;
      queue.push(std::move(e));
    }
    for (std::size_t i = 0; i < ops; ++i) {
      TimedEvent e = std::move(const_cast<TimedEvent&>(queue.top()));
      queue.pop();
      now = e.time;
      e.time = now + 1 + static_cast<SimTime>(rng.uniform(200));
      e.seq = seq++;
      queue.push(std::move(e));
    }
    benchmark::DoNotOptimize(now);
    return ops;
  });
}
BENCHMARK(BM_EventQueue_PriorityQueue);

void BM_EventQueue_OneShotBurst(benchmark::State& state) {
  // One scenario cell's shape at bftcup-n128 volume: 70k events seeded at
  // ticks 1-10, each pop pushing one event 1-10 ticks later until tick 50,
  // then the drain. A fresh queue and a reseeded stream per iteration, so
  // every iteration does the same work and the same allocations.
  constexpr std::size_t kSeedEvents = 70'000;
  constexpr SimTime kLastPushTick = 50;
  std::uint64_t events = 0;
  std::uint64_t ticks = 0;
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t allocs_before = heap_allocs();
    Rng rng(11);
    sim::CalendarQueue queue;
    for (std::size_t i = 0; i < kSeedEvents; ++i) {
      queue.push(1 + static_cast<SimTime>(rng.uniform(10)), sim::Event{});
    }
    events = 0;
    ticks = 0;
    SimTime last = 0;
    while (!queue.empty()) {
      sim::Event e = queue.pop();
      const SimTime now = queue.cursor();
      ++events;
      if (now != last) ++ticks;
      last = now;
      if (now < kLastPushTick) {
        queue.push(now + 1 + static_cast<SimTime>(rng.uniform(10)),
                   std::move(e));
      }
    }
    allocs = heap_allocs() - allocs_before;
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
  state.counters["events"] = static_cast<double>(events);
  state.counters["heap_allocs_per_tick"] =
      static_cast<double>(allocs) / static_cast<double>(ticks);
}
BENCHMARK(BM_EventQueue_OneShotBurst)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace scup

SCUP_BENCH_MAIN("E0");
