// E8 — Definitions 6-7 as algorithms: cost of verifying k-OSR (SCC +
// condensation + Menger max-flow disjoint-path checks) and the safe
// Byzantine failure pattern, vs graph size and k.
#include "bench_common.hpp"

#include "graph/disjoint_paths.hpp"
#include "graph/kosr.hpp"

namespace scup {
namespace {

void BM_Scc(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto g = graph::random_digraph(n, 4.0 / static_cast<double>(n), 7);
  int components = 0;
  for (auto _ : state) {
    components = graph::strongly_connected_components(g).component_count();
    benchmark::DoNotOptimize(components);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.counters["components"] = static_cast<double>(components);
}
BENCHMARK(BM_Scc)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_Condensation(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto g = graph::random_digraph(n, 4.0 / static_cast<double>(n), 7);
  std::size_t sinks = 0;
  for (auto _ : state) {
    sinks = graph::condense(g).sink_components.size();
    benchmark::DoNotOptimize(sinks);
  }
  state.counters["sink_components"] = static_cast<double>(sinks);
}
BENCHMARK(BM_Condensation)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_DisjointPathsSinglePair(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  graph::KosrGenParams params;
  params.sink_size = n / 2;
  params.non_sink_size = n - n / 2;
  params.k = 3;
  params.seed = 5;
  const auto g = graph::random_kosr_graph(params);
  const NodeSet all = NodeSet::full(n);
  std::size_t paths = 0;
  for (auto _ : state) {
    paths = graph::max_vertex_disjoint_paths(
        g, static_cast<ProcessId>(n - 1), 0, all);
    benchmark::DoNotOptimize(paths);
  }
  state.counters["paths"] = static_cast<double>(paths);
}
BENCHMARK(BM_DisjointPathsSinglePair)->Arg(16)->Arg(64)->Arg(256)->Arg(512);

void BM_KosrFullCheck(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  graph::KosrGenParams params;
  params.sink_size = n / 2;
  params.non_sink_size = n - n / 2;
  params.k = k;
  params.seed = 5;
  const auto g = graph::random_kosr_graph(params);
  graph::KosrReport report;
  for (auto _ : state) {
    report = graph::check_kosr(g, k);
    benchmark::DoNotOptimize(report);
  }
  state.counters["k"] = static_cast<double>(k);
  state.counters["kosr_holds"] = report.ok() ? 1 : 0;
}
BENCHMARK(BM_KosrFullCheck)
    ->ArgsProduct({{8, 16, 32, 64, 128, 256}, {3}})
    ->Args({32, 5})
    ->Unit(benchmark::kMillisecond);

void BM_ByzantineSafeCheck(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t f = 1;
  graph::KosrGenParams params;
  params.sink_size = n / 2;
  params.non_sink_size = n - n / 2;
  params.k = 2 * f + 1;
  params.seed = 9;
  const auto g = graph::random_kosr_graph(params);
  NodeSet faulty(n, {0});
  bool safe = false;
  for (auto _ : state) {
    safe = graph::is_byzantine_safe(g, faulty, f);
    benchmark::DoNotOptimize(safe);
  }
  state.counters["safe"] = safe ? 1 : 0;
}
BENCHMARK(BM_ByzantineSafeCheck)->Arg(8)->Arg(16)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_KosrGeneration(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  graph::KosrGenParams params;
  params.sink_size = n / 2;
  params.non_sink_size = n - n / 2;
  params.k = 3;
  // Every iteration generates seed 1's graph, so the timed input does not
  // depend on how many iterations the harness picks.
  params.seed = 1;
  std::size_t edges = 0;
  for (auto _ : state) {
    edges = graph::random_kosr_graph(params).edge_count();
    benchmark::DoNotOptimize(edges);
  }
  state.counters["edges"] = static_cast<double>(edges);
}
BENCHMARK(BM_KosrGeneration)->Arg(16)->Arg(64)->Arg(256);

}  // namespace
}  // namespace scup

SCUP_BENCH_MAIN("E8");
