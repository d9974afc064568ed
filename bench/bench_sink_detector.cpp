// E5 — Algorithm 3 / Theorem 6: the sink detector in simulation.
//
// Sweeps system size (sink fraction 1/2), f, and adversary presence, and
// reports: time until the last correct process's get_sink returns
// (simulated ticks), total messages and bytes spent by the discovery layer,
// and whether the estimate was exact — regenerating the oracle-cost story
// of Section VI. Message complexity is expected to grow ~quadratically.
#include "bench_common.hpp"

#include "sim/simulation.hpp"
#include "sinkdetector/sink_detector.hpp"
#include "core/adversaries.hpp"

namespace scup {
namespace {

class DetectorOnlyNode : public sim::ComposedNode {
 public:
  DetectorOnlyNode(NodeSet pd, std::size_t f)
      : ComposedNode(f), detector_(*this, std::move(pd)) {}
  void start() override { detector_.start(); }
  void on_message(ProcessId from, const sim::MessagePtr& msg) override {
    detector_.handle(from, *msg);
  }
  sinkdetector::SinkDetector detector_;
};

struct SdRun {
  SimTime last_return = 0;
  std::size_t messages = 0;
  std::size_t bytes = 0;
  bool exact = true;
  bool returned = true;
};

SdRun run_sd(std::size_t sink_size, std::size_t non_sink, std::size_t f,
             std::uint64_t seed, bool with_faults) {
  graph::KosrGenParams params;
  params.sink_size = sink_size;
  params.non_sink_size = non_sink;
  params.k = 2 * f + 1;
  params.seed = seed;
  const auto g = graph::random_kosr_graph(params);
  const NodeSet sink = graph::unique_sink_component(g);
  NodeSet faulty(g.node_count());
  if (with_faults) {
    Rng rng(seed + 99);
    faulty = graph::pick_safe_faulty_set(g, sink, f, true, rng);
  }

  sim::NetworkConfig net;
  net.seed = seed;
  net.min_delay = 1;
  net.max_delay = 10;
  sim::Simulation sim(g.node_count(), net);
  std::vector<DetectorOnlyNode*> nodes(g.node_count(), nullptr);
  for (ProcessId i = 0; i < g.node_count(); ++i) {
    if (faulty.contains(i)) {
      sim.emplace_process<core::SilentNode>(i);
    } else {
      nodes[i] = &sim.emplace_process<DetectorOnlyNode>(i, g.pd_of(i), f);
    }
  }
  sim.start();
  const NodeSet correct = faulty.complement();
  const bool done = sim.run_until(
      [&] {
        for (ProcessId i : correct) {
          if (!nodes[i]->detector_.has_result()) return false;
        }
        return true;
      },
      5'000'000);

  SdRun r;
  r.returned = done;
  r.last_return = sim.now();
  r.messages = sim.metrics().messages_sent;
  r.bytes = sim.metrics().bytes_sent;
  for (ProcessId i : correct) {
    if (!nodes[i]->detector_.has_result() ||
        !(nodes[i]->detector_.result().sink == sink)) {
      r.exact = false;
    }
  }
  return r;
}

void BM_SinkDetector_Sweep(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t f = static_cast<std::size_t>(state.range(1));
  const std::size_t sink_size = n / 2;
  const std::size_t non_sink = n - sink_size;
  // Every iteration of every row runs the row's one seed, so the reported
  // counters do not depend on how many iterations the harness picks.
  SdRun r;
  for (auto _ : state) {
    r = run_sd(sink_size, non_sink, f, /*seed=*/1, /*with_faults=*/true);
    benchmark::DoNotOptimize(r);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["f"] = static_cast<double>(f);
  state.counters["sim_ticks_to_return"] = static_cast<double>(r.last_return);
  state.counters["messages"] = static_cast<double>(r.messages);
  state.counters["kilobytes"] = static_cast<double>(r.bytes) / 1024.0;
  state.counters["all_returned"] = r.returned ? 1 : 0;
  state.counters["estimate_exact"] = r.exact ? 1 : 0;
}
BENCHMARK(BM_SinkDetector_Sweep)
    ->ArgsProduct({{8, 12, 16, 24, 32, 48}, {1}})
    ->Args({16, 2})
    ->Args({24, 2})
    ->Args({32, 2})
    ->Unit(benchmark::kMillisecond);

void BM_SinkDetector_FaultFreeBaseline(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  SdRun r;
  for (auto _ : state) {
    r = run_sd(n / 2, n - n / 2, 1, /*seed=*/7, /*with_faults=*/false);
    benchmark::DoNotOptimize(r);
  }
  state.counters["sim_ticks_to_return"] = static_cast<double>(r.last_return);
  state.counters["messages"] = static_cast<double>(r.messages);
  state.counters["estimate_exact"] = r.exact ? 1 : 0;
}
BENCHMARK(BM_SinkDetector_FaultFreeBaseline)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(48)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace scup

SCUP_BENCH_MAIN("E5");
