// E7 — Theorem 1 baseline: BFT-CUP (SINK discovery + PBFT among the sink +
// decision dissemination) on the same graph family and failure placements
// as E6, plus a head-to-head comparison row. The headline shape (Corollary
// 2): both protocols decide with the same minimal knowledge; BFT-CUP pays
// PBFT + dissemination, Stellar+SD pays SCP's federated voting.
#include "bench_common.hpp"

namespace scup {
namespace {

core::ScenarioReport run_once(std::size_t n, std::size_t f,
                              std::uint64_t seed,
                              core::ProtocolKind protocol) {
  graph::KosrGenParams params;
  params.sink_size = n / 2;
  params.non_sink_size = n - n / 2;
  params.k = 2 * f + 1;
  params.seed = seed;
  const auto g = graph::random_kosr_graph(params);
  const NodeSet sink = graph::unique_sink_component(g);
  Rng rng(seed + 5);
  const NodeSet faulty = graph::pick_safe_faulty_set(g, sink, f, true, rng);
  return core::run_scenario(bench::sim_scenario(g, f, faulty, seed, protocol));
}

void BM_BftCup_Sweep(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t f = static_cast<std::size_t>(state.range(1));
  // Every iteration of every row runs the row's one seed, so the reported
  // counters do not depend on how many iterations the harness picks.
  core::ScenarioReport r;
  for (auto _ : state) {
    r = run_once(n, f, /*seed=*/1, core::ProtocolKind::kBftCup);
    benchmark::DoNotOptimize(r);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["f"] = static_cast<double>(f);
  state.counters["t_first_decide"] = static_cast<double>(r.first_decision);
  state.counters["t_last_decide"] = static_cast<double>(r.last_decision);
  state.counters["messages"] = static_cast<double>(r.metrics.messages_sent);
  state.counters["kilobytes"] =
      static_cast<double>(r.metrics.bytes_sent) / 1024.0;
  state.counters["termination"] = r.all_decided ? 1 : 0;
  state.counters["agreement"] = r.agreement ? 1 : 0;
  state.counters["validity"] = r.validity ? 1 : 0;
}
BENCHMARK(BM_BftCup_Sweep)
    ->ArgsProduct({{8, 12, 16, 24, 32}, {1}})
    ->Args({16, 2})
    ->Args({24, 2})
    ->Unit(benchmark::kMillisecond);

void BM_HeadToHead(benchmark::State& state) {
  // Identical graph + faults, both protocols; reports the latency and
  // message ratios (Stellar / BFT-CUP).
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  core::ScenarioReport stellar, bftcup;
  for (auto _ : state) {
    stellar = run_once(n, 1, /*seed=*/42, core::ProtocolKind::kStellarSd);
    bftcup = run_once(n, 1, /*seed=*/42, core::ProtocolKind::kBftCup);
    benchmark::DoNotOptimize(bftcup);
  }
  state.counters["stellar_t_last"] =
      static_cast<double>(stellar.last_decision);
  state.counters["bftcup_t_last"] = static_cast<double>(bftcup.last_decision);
  state.counters["stellar_msgs"] =
      static_cast<double>(stellar.metrics.messages_sent);
  state.counters["bftcup_msgs"] =
      static_cast<double>(bftcup.metrics.messages_sent);
  state.counters["latency_ratio"] =
      static_cast<double>(stellar.last_decision) /
      static_cast<double>(std::max<SimTime>(1, bftcup.last_decision));
  state.counters["msg_ratio"] =
      static_cast<double>(stellar.metrics.messages_sent) /
      static_cast<double>(std::max<std::size_t>(1,
                                                bftcup.metrics.messages_sent));
  state.counters["both_decide"] =
      (stellar.all_decided && bftcup.all_decided) ? 1 : 0;
}
BENCHMARK(BM_HeadToHead)->Arg(8)->Arg(16)->Arg(24)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace scup

SCUP_BENCH_MAIN("E7");
