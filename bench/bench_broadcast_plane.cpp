// E16: the broadcast plane. Three questions, answered on one binary
// (DESIGN.md §4.9, EXPERIMENTS.md E16):
//
//  1. MessageChurn — what does constructing and dropping a message cost?
//     make_message is a plain make_shared; the row is the wall baseline the
//     E16 regression gate normalizes every other row by. The binary
//     replaces global operator new/delete with counting shims, so the row
//     also reports *measured* heap allocations per message.
//
//  2. EncodeOnce — what does the wire-once frame cache save on a broadcast?
//     cached:1 encodes one message object and serves fan_out sends from the
//     cache; cached:0 is the per-send-encode world (a fresh encode per
//     destination).
//
//  3. ScenarioAB/proto:k — a full E12 churn/partition scenario per
//     protocol, reporting wall time, measured heap allocations and the
//     encode-once counters. Each row self-checks the accounting invariant:
//     every protocol family has a codec, so
//     wire_encodes + wire_cached_sends == messages_sent, and broadcast
//     amortization means cached sends dominate encodes.
#include "bench_common.hpp"

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "common/rng.hpp"
#include "cup/messages.hpp"
#include "scp/envelope.hpp"
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

// ---- 1. micro: message churn ----------------------------------------------

/// One churn round: `total` short-lived codec-bearing messages with a
/// bounded live window — the steady-state shape of a broadcast plane.
/// Returns the number of heap allocations the round performed.
std::uint64_t churn_messages(std::size_t total, std::size_t window) {
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
  const std::size_t total = 100'000;
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    allocs = churn_messages(total, 64);
    benchmark::DoNotOptimize(allocs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(total));
  state.counters["heap_allocs_per_msg"] =
      static_cast<double>(allocs) / static_cast<double>(total);
}
BENCHMARK(BM_MessageChurn)->Unit(benchmark::kMillisecond);

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

// ---- 3. macro: E12 churn/partition scenarios -------------------------------

void BM_ScenarioAB(benchmark::State& state) {
  const auto protocol = state.range(0) == 0 ? core::ProtocolKind::kStellarSd
                                            : core::ProtocolKind::kBftCup;
  core::ChurnPartitionParams params;
  params.protocol = protocol;
  params.seed = 5;
  const core::ScenarioConfig cfg = core::churn_partition_scenario(params);
  core::ScenarioReport report;
  std::uint64_t allocs = 0;
  for (auto _ : state) {
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
    ->ArgName("proto")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace scup

SCUP_BENCH_MAIN("E16");
