// E6 — Theorem 5 / Corollary 2: end-to-end Stellar with the sink detector.
//
// PD_i + f -> get_sink -> Algorithm-2 slices -> SCP externalization.
// Sweeps n and f with silent Byzantine faults placed safely (possibly in
// the sink), plus an SCP-equivocator row and a pre-GST asynchrony row.
// Reports decision latency (simulated ticks), message/byte totals, and the
// consensus properties (all must hold — they are theorems).
#include "bench_common.hpp"

namespace scup {
namespace {

core::ScenarioReport run_once(std::size_t n, std::size_t f,
                              std::uint64_t seed,
                              core::AdversaryKind adversary,
                              SimTime gst = 0) {
  graph::KosrGenParams params;
  params.sink_size = n / 2;
  params.non_sink_size = n - n / 2;
  params.k = 2 * f + 1;
  params.seed = seed;
  const auto g = graph::random_kosr_graph(params);
  const NodeSet sink = graph::unique_sink_component(g);
  Rng rng(seed + 5);
  const NodeSet faulty = graph::pick_safe_faulty_set(g, sink, f, true, rng);
  auto cfg = bench::sim_scenario(g, f, faulty, seed,
                                 core::ProtocolKind::kStellarSd);
  cfg.adversary = adversary;
  cfg.net.gst = gst;
  cfg.net.pre_gst_max_delay = 500;
  return core::run_scenario(cfg);
}

void report(benchmark::State& state, const core::ScenarioReport& r) {
  state.counters["t_first_decide"] = static_cast<double>(r.first_decision);
  state.counters["t_last_decide"] = static_cast<double>(r.last_decision);
  state.counters["t_sd_return"] = static_cast<double>(r.sd_last_return);
  state.counters["messages"] = static_cast<double>(r.metrics.messages_sent);
  state.counters["kilobytes"] =
      static_cast<double>(r.metrics.bytes_sent) / 1024.0;
  state.counters["termination"] = r.all_decided ? 1 : 0;
  state.counters["agreement"] = r.agreement ? 1 : 0;
  state.counters["validity"] = r.validity ? 1 : 0;
}

void BM_StellarSd_Sweep(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t f = static_cast<std::size_t>(state.range(1));
  // Every iteration of every row runs the row's one seed, so the reported
  // counters do not depend on how many iterations the harness picks.
  core::ScenarioReport r;
  for (auto _ : state) {
    r = run_once(n, f, /*seed=*/1, core::AdversaryKind::kSilent);
    benchmark::DoNotOptimize(r);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["f"] = static_cast<double>(f);
  report(state, r);
}
BENCHMARK(BM_StellarSd_Sweep)
    ->ArgsProduct({{8, 12, 16, 24, 32}, {1}})
    ->Args({16, 2})
    ->Args({24, 2})
    ->Unit(benchmark::kMillisecond);

void BM_StellarSd_ScpEquivocator(benchmark::State& state) {
  core::ScenarioReport r;
  for (auto _ : state) {
    r = run_once(12, 1, /*seed=*/3, core::AdversaryKind::kScpEquivocator);
    benchmark::DoNotOptimize(r);
  }
  report(state, r);
}
BENCHMARK(BM_StellarSd_ScpEquivocator)->Unit(benchmark::kMillisecond);

void BM_StellarSd_PreGstAsynchrony(benchmark::State& state) {
  core::ScenarioReport r;
  for (auto _ : state) {
    r = run_once(12, 1, /*seed=*/11, core::AdversaryKind::kSilent,
                 /*gst=*/5'000);
    benchmark::DoNotOptimize(r);
  }
  report(state, r);
}
BENCHMARK(BM_StellarSd_PreGstAsynchrony)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace scup

SCUP_BENCH_MAIN("E6");
