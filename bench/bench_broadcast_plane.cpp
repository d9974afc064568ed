// E16: the zero-allocation broadcast plane. Four questions, answered on one
// binary (DESIGN.md §4.9, EXPERIMENTS.md E16):
//
//  1. MessageChurn / AllocRatio — does the slab pool actually remove the
//     per-message allocator round-trips? The binary replaces global
//     operator new/delete with counting shims, so the rows report *measured*
//     heap allocations, and AllocRatio self-checks the headline claim: the
//     legacy make_shared plane performs >= 5x the heap allocations of the
//     pooled plane on the same workload (SkipWithError otherwise).
//
//  2. EncodeOnce — what does the wire-once frame cache save on a broadcast?
//     cached:1 encodes one message object and serves fan_out sends from the
//     cache; cached:0 is the per-send-encode world (a fresh encode per
//     destination).
//
//  3. ScenarioAB — the macro A/B: full E12 churn/partition scenarios with
//     the pool on vs. off, reporting wall time, measured heap allocations
//     and the encode-once counters. Each row self-checks the accounting
//     invariant: every protocol family has a codec now, so
//     wire_encodes + wire_cached_sends == messages_sent, and broadcast
//     amortization means cached sends dominate encodes.
//
//  4. PoolIdentity/shape:k — the contract row: on every E12 shape, the
//     pooled run is bit-identical to the pre-pool path (Notary
//     fingerprint, full SimMetrics, decision times, end time).
#include "bench_common.hpp"

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "common/rng.hpp"
#include "cup/messages.hpp"
#include "scp/envelope.hpp"
#include "sim/message_pool.hpp"
#include "sim/simulation.hpp"

// ---- global allocation meter -----------------------------------------------
// Counting shims for the whole binary. Replacing operator new in one TU
// rebinds every heap allocation in the executable, so the counters see the
// benchmark harness too — rows therefore always compare *deltas* between
// two phases of the same code path, where the harness contribution cancels.
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

std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

// ---- 1. micro: pooled vs. make_shared message churn ------------------------

/// One churn round: `total` short-lived codec-bearing messages with a
/// bounded live window — the steady-state shape of a broadcast plane.
/// Returns the number of heap allocations the round performed.
std::uint64_t churn_messages(sim::MessagePool* pool, std::size_t total,
                             std::size_t window) {
  const sim::MessagePool::Scope scope(pool);
  std::vector<sim::MessagePtr> live;
  live.reserve(window + 1);
  std::size_t next = 0;
  const std::uint64_t before = heap_allocs();
  for (std::size_t i = 0; i < total; ++i) {
    live.push_back(sim::make_message<cup::GetSinkMsg>(
        static_cast<ProcessId>(i)));
    if (live.size() > window) {
      live[next % window] = std::move(live.back());
      live.pop_back();
      ++next;
    }
  }
  live.clear();
  return heap_allocs() - before;
}

void BM_MessageChurn(benchmark::State& state) {
  const bool pooled = state.range(0) != 0;
  const std::size_t total = 100'000;
  std::uint64_t allocs = 0;
  sim::MessagePool pool;  // warm pool reused across iterations
  for (auto _ : state) {
    allocs = churn_messages(pooled ? &pool : nullptr, total, 64);
    benchmark::DoNotOptimize(allocs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(total));
  state.counters["heap_allocs_per_msg"] =
      static_cast<double>(allocs) / static_cast<double>(total);
  if (pooled) {
    state.counters["pool_slabs"] = static_cast<double>(pool.stats().slabs_created);
    state.counters["pool_fallbacks"] =
        static_cast<double>(pool.stats().fallback_allocs);
  }
}
BENCHMARK(BM_MessageChurn)
    ->ArgName("pooled")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_AllocRatio(benchmark::State& state) {
  // The headline self-check: same churn, pool off vs. on (warm), measured
  // allocation ratio must be >= 5x. A warm pooled round allocates only
  // when the live watermark grows, so the steady-state ratio is in the
  // thousands; 5x is the floor the experiment promises.
  const std::size_t total = 100'000;
  double ratio = 0;
  std::uint64_t legacy_allocs = 0;
  std::uint64_t pooled_allocs = 0;
  sim::MessagePool pool;
  churn_messages(&pool, total, 64);  // warm-up: reach the slab watermark
  for (auto _ : state) {
    legacy_allocs = churn_messages(nullptr, total, 64);
    pooled_allocs = churn_messages(&pool, total, 64);
    ratio = static_cast<double>(legacy_allocs) /
            static_cast<double>(pooled_allocs == 0 ? 1 : pooled_allocs);
    if (ratio < 5.0) {
      state.SkipWithError("allocation ratio below the promised 5x");
      return;
    }
  }
  state.counters["legacy_allocs"] = static_cast<double>(legacy_allocs);
  state.counters["pooled_allocs"] = static_cast<double>(pooled_allocs);
  state.counters["alloc_ratio"] = ratio;
}
BENCHMARK(BM_AllocRatio)->Unit(benchmark::kMillisecond);

// ---- 2. micro: wire-once frame cache on a broadcast ------------------------

scp::Envelope broadcast_envelope() {
  scp::NominateStmt nom;
  for (Value v = 1000; v < 1016; ++v) nom.voted.push_back(v);
  const fbqs::QSet qset = fbqs::QSet::threshold_of(
      5, std::vector<ProcessId>{0, 1, 2, 3, 4, 5, 6});
  return scp::Envelope(1, 7, qset, scp::Statement{nom});
}

void BM_EncodeOnce(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  const std::size_t fan_out = 64;
  const scp::Envelope proto = broadcast_envelope();
  std::size_t bytes = 0;
  for (auto _ : state) {
    if (cached) {
      // The broadcast plane: one message object, fan_out sends, the frame
      // encoded exactly once and the size served from the cache after.
      const auto msg = sim::make_message<scp::Envelope>(proto);
      for (std::size_t i = 0; i < fan_out; ++i) {
        bytes += msg->send_size().bytes;
      }
    } else {
      // The per-send-encode world: every destination pays a full encode
      // (modeled as a fresh message object per send).
      for (std::size_t i = 0; i < fan_out; ++i) {
        const auto msg = sim::make_message<scp::Envelope>(proto);
        bytes += msg->send_size().bytes;
      }
    }
  }
  benchmark::DoNotOptimize(bytes);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fan_out));
  state.counters["frame_bytes"] = static_cast<double>(
      bytes / (state.iterations() * fan_out));
}
BENCHMARK(BM_EncodeOnce)
    ->ArgName("cached")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// ---- 3. macro: E12 scenarios, pool on vs. off ------------------------------

core::ScenarioConfig e12_shape(int shape, core::ProtocolKind protocol,
                               std::uint64_t seed) {
  core::ChurnPartitionParams p;
  p.protocol = protocol;
  p.seed = seed;
  p.with_partition = shape >= 1;
  if (shape == 2) p.pre_gst_drop = 0.2;
  p.with_crash = shape == 3;
  return core::churn_partition_scenario(p);
}

void BM_ScenarioAB(benchmark::State& state) {
  const auto protocol = state.range(0) == 0 ? core::ProtocolKind::kStellarSd
                                            : core::ProtocolKind::kBftCup;
  const bool pooled = state.range(1) != 0;
  core::ScenarioReport report;
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    core::ScenarioConfig cfg = e12_shape(1, protocol, 5);
    cfg.net.message_pool = pooled;
    const std::uint64_t before = heap_allocs();
    report = core::run_scenario(cfg);
    allocs = heap_allocs() - before;
    if (!report.all_decided) {
      state.SkipWithError("scenario failed to decide");
      return;
    }
    // Every protocol family carries a codec, so traffic accounting is
    // exact-frame for every send: encodes + cached sends must tile the
    // send count, and broadcast fan-out means the cache dominates.
    const std::uint64_t encodes =
        report.metrics.protocol_counter(sim::ProtoCounter::kWireEncodes);
    const std::uint64_t cached = report.metrics.protocol_counter(
        sim::ProtoCounter::kWireCachedSends);
    if (encodes + cached != report.metrics.messages_sent || cached < encodes) {
      state.SkipWithError("wire-once accounting violated");
      return;
    }
  }
  const double encodes = static_cast<double>(
      report.metrics.protocol_counter(sim::ProtoCounter::kWireEncodes));
  state.counters["heap_allocs"] = static_cast<double>(allocs);
  state.counters["messages_sent"] =
      static_cast<double>(report.metrics.messages_sent);
  state.counters["wire_encodes"] = encodes;
  state.counters["wire_cached_sends"] = static_cast<double>(
      report.metrics.protocol_counter(sim::ProtoCounter::kWireCachedSends));
  state.counters["sends_per_encode"] =
      static_cast<double>(report.metrics.messages_sent) / encodes;
}
BENCHMARK(BM_ScenarioAB)
    ->ArgNames({"proto", "pooled"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

// ---- 4. the contract row: pooled == pre-pool, every shape -----------------

void BM_PoolIdentity(benchmark::State& state) {
  const int shape = static_cast<int>(state.range(0));
  std::size_t checks = 0;
  for (auto _ : state) {
    for (core::ProtocolKind protocol :
         {core::ProtocolKind::kStellarSd, core::ProtocolKind::kBftCup}) {
      core::ScenarioConfig cfg = e12_shape(shape, protocol, 3);
      cfg.net.message_pool = false;
      const core::ScenarioReport legacy = core::run_scenario(cfg);
      cfg.net.message_pool = true;
      const core::ScenarioReport pooled = core::run_scenario(cfg);
      if (!legacy.all_decided ||
          pooled.notary_fingerprint != legacy.notary_fingerprint ||
          !(pooled.metrics == legacy.metrics) ||
          pooled.decision_times != legacy.decision_times ||
          pooled.end_time != legacy.end_time) {
        state.SkipWithError("pool on/off identity violated");
        return;
      }
      checks += 2;
    }
  }
  state.counters["identity_checks"] = static_cast<double>(checks);
}
BENCHMARK(BM_PoolIdentity)
    ->ArgName("shape")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace scup

SCUP_BENCH_MAIN("E16");
