// E13 — multi-slot ledger throughput on the QuorumEngine.
//
// A LedgerNode chain runs one SCP instance per slot; before the
// QuorumEngine, every federated_accept/federated_ratify re-gathered support
// from both envelope maps and re-ran the Algorithm-1 closure from scratch —
// per candidate ballot, per envelope, per slot. This bench closes 50-slot
// chains at n ∈ {16, 64, 128} (k-OSR graphs, sink fraction 1/2, f = 1,
// silent Byzantine placement) and reports, alongside wall time:
//  - slots_per_sec       chain throughput (slots × cells per wall second),
//  - qset_evals          QSet evaluations actually run,
//  - qset_evals_baseline what the rescan baseline would have run for the
//                        same checks (counted by the same code path; a
//                        cached closure verdict charges the baseline one
//                        pass, |support| evaluations),
//  - rescan_savings      their ratio (the E13 acceptance bar is ≥ 10×),
//  - closure_runs / closure_cache_hits / interned_qsets / support_updates,
//  - chains_agree        every correct replica closed the identical chain
//                        (byte-equal chain_digest),
// plus message/byte traffic. The MatrixIdentity rows run the seed sweep
// through the scenario-matrix thread pool and prove serial == parallel
// cell-by-cell (digests, decisions, engine counters), so the numbers are
// thread-count-invariant.
#include "bench_common.hpp"

#include <algorithm>

#include "core/adversaries.hpp"
#include "core/ledger_node.hpp"
#include "core/scenario_matrix.hpp"
#include "sim/simulation.hpp"

namespace scup {
namespace {

struct ChainRun {
  bool all_decided = true;
  bool chains_agree = true;
  std::uint64_t digest = 0;
  fbqs::QuorumEngineStats stats;  // summed over correct replicas
  std::size_t interned = 0;       // summed over correct replicas
  std::size_t messages = 0;
  std::size_t bytes = 0;
  SimTime last_tick = 0;
  sim::SimMetrics metrics;

  bool operator==(const ChainRun&) const = default;
};

ChainRun run_chain(std::size_t n, std::size_t f, std::size_t slots,
                   std::uint64_t seed) {
  core::LargeScaleParams params;
  params.n = n;
  params.f = f;
  params.seed = seed;
  const core::ScenarioConfig cfg = core::large_scale_scenario(params);
  const NodeSet correct = cfg.faulty.complement();

  sim::Simulation sim(n, cfg.net);
  std::vector<core::LedgerNode*> nodes(n, nullptr);
  for (ProcessId i = 0; i < n; ++i) {
    if (cfg.faulty.contains(i)) {
      sim.emplace_process<core::SilentNode>(i);
    } else {
      nodes[i] = &sim.emplace_process<core::LedgerNode>(i, cfg.graph.pd_of(i),
                                                        f, slots);
      // Contended but bounded proposal space: 16 distinct proposals per
      // slot. The default per-node provider makes echo-all nomination
      // traffic grow ~n³ per slot (every replica keeps discovering new
      // values to re-announce), which measures nomination chatter, not the
      // federated-voting path this experiment targets; 16 contending
      // proposals keep nomination adversarial while the per-slot value
      // space stays fixed as n grows.
      nodes[i]->set_value_provider([i, seed](std::uint64_t slot) {
        return hash_mix(0xE13, seed ^ slot, i % 16) | 1;
      });
    }
  }
  sim.start();
  sim.run_until(
      [&] {
        for (ProcessId i : correct) {
          if (nodes[i]->decided_slots() < slots) return false;
        }
        return true;
      },
      cfg.deadline * 4, /*stride=*/64);

  ChainRun r;
  const ProcessId first = correct.min_member();
  r.digest = nodes[first]->chain_digest();
  for (ProcessId i : correct) {
    if (nodes[i]->decided_slots() < slots) r.all_decided = false;
    if (nodes[i]->chain_digest() != r.digest) r.chains_agree = false;
    const auto& s = nodes[i]->quorum_stats();
    r.stats.qset_evals += s.qset_evals;
    r.stats.qset_evals_baseline += s.qset_evals_baseline;
    r.stats.closure_runs += s.closure_runs;
    r.stats.closure_cache_hits += s.closure_cache_hits;
    r.stats.intern_hits += s.intern_hits;
    r.stats.support_updates += s.support_updates;
    r.stats.support_rebuilds += s.support_rebuilds;
    r.interned += nodes[i]->ledger().engine().interned_count();
  }
  r.messages = sim.metrics().messages_sent;
  r.bytes = sim.metrics().bytes_sent;
  r.last_tick = sim.now();
  r.metrics = sim.metrics();
  return r;
}

void report_chain(benchmark::State& state, const ChainRun& r,
                  std::size_t slots, std::size_t cells) {
  state.counters["slots_per_sec"] = benchmark::Counter(
      static_cast<double>(slots * cells),
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["qset_evals"] = static_cast<double>(r.stats.qset_evals);
  state.counters["qset_evals_baseline"] =
      static_cast<double>(r.stats.qset_evals_baseline);
  state.counters["rescan_savings"] =
      r.stats.qset_evals == 0
          ? 0.0
          : static_cast<double>(r.stats.qset_evals_baseline) /
                static_cast<double>(r.stats.qset_evals);
  state.counters["closure_runs"] = static_cast<double>(r.stats.closure_runs);
  state.counters["closure_cache_hits"] =
      static_cast<double>(r.stats.closure_cache_hits);
  state.counters["support_updates"] =
      static_cast<double>(r.stats.support_updates);
  state.counters["interned_qsets"] = static_cast<double>(r.interned);
  state.counters["all_decided"] = r.all_decided ? 1 : 0;
  state.counters["chains_agree"] = r.chains_agree ? 1 : 0;
  state.counters["messages"] = static_cast<double>(r.messages);
  state.counters["kilobytes"] = static_cast<double>(r.bytes) / 1024.0;
  state.counters["sim_ticks"] = static_cast<double>(r.last_tick);
}

void BM_LedgerThroughput_Sweep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto slots = static_cast<std::size_t>(state.range(1));
  // Every iteration runs seed 1, so the reported counters do not depend on
  // how many iterations the harness picks.
  ChainRun r;
  for (auto _ : state) {
    r = run_chain(n, /*f=*/1, slots, /*seed=*/1);
    benchmark::DoNotOptimize(r);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["slots"] = static_cast<double>(slots);
  report_chain(state, r, slots, /*cells=*/1);
}
BENCHMARK(BM_LedgerThroughput_Sweep)
    ->ArgNames({"n", "slots"})
    ->Args({16, 50})
    ->Args({64, 50})
    ->Args({128, 50})
    ->Unit(benchmark::kMillisecond);

void BM_LedgerThroughput_MatrixIdentity(benchmark::State& state) {
  // The seed sweep through the scenario-matrix thread pool. Cells are
  // self-contained deterministic simulations, so the pooled run must be
  // bit-identical to the serial one — digests, decisions, engine counters
  // and SimMetrics compare equal cell-by-cell.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto slots = static_cast<std::size_t>(state.range(1));
  const auto threads = static_cast<std::size_t>(state.range(2));
  const std::vector<std::uint64_t> seeds{1, 2, 3, 4};

  std::vector<ChainRun> serial(seeds.size());
  core::parallel_cells(seeds.size(), 1, [&](std::size_t i) {
    serial[i] = run_chain(n, 1, slots, seeds[i]);
  });

  std::vector<ChainRun> pooled(seeds.size());
  for (auto _ : state) {
    core::parallel_cells(seeds.size(), threads, [&](std::size_t i) {
      pooled[i] = run_chain(n, 1, slots, seeds[i]);
    });
    benchmark::DoNotOptimize(pooled);
  }

  std::size_t identical = 0;
  ChainRun total;
  total.metrics = {};
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    if (serial[i] == pooled[i]) ++identical;
    total.all_decided = total.all_decided && pooled[i].all_decided;
    total.chains_agree = total.chains_agree && pooled[i].chains_agree;
    total.stats.qset_evals += pooled[i].stats.qset_evals;
    total.stats.qset_evals_baseline += pooled[i].stats.qset_evals_baseline;
    total.stats.closure_runs += pooled[i].stats.closure_runs;
    total.stats.closure_cache_hits += pooled[i].stats.closure_cache_hits;
    total.stats.support_updates += pooled[i].stats.support_updates;
    total.interned += pooled[i].interned;
    total.messages += pooled[i].messages;
    total.bytes += pooled[i].bytes;
    total.last_tick = std::max(total.last_tick, pooled[i].last_tick);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["slots"] = static_cast<double>(slots);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["cells"] = static_cast<double>(seeds.size());
  state.counters["identical_cells"] = static_cast<double>(identical);
  report_chain(state, total, slots, seeds.size());
}
BENCHMARK(BM_LedgerThroughput_MatrixIdentity)
    ->ArgNames({"n", "slots", "threads"})
    ->Args({16, 50, 8})
    ->Args({64, 20, 8})
    ->UseRealTime()  // cells run on pool threads; rate by wall clock
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace scup

SCUP_BENCH_MAIN("E13");
