// E11 — the discovery→consensus pipeline at scale.
//
// The SINK algorithm's admission step is the CPU hot spot of bootstrapping:
// every certificate batch used to re-run the Menger max-flow check for every
// reachable node. This bench sweeps k-OSR graphs up to 512 nodes (sink
// fraction 1/2, the E5 shape) with discovery-only processes and reports,
// alongside wall time:
//  - nodes_per_sec        processed system size per second of wall time,
//  - flow_evals           max-flow evaluations the incremental algorithm
//                         actually ran,
//  - domtree_passes       f = 1 updates decided by the dominator tree,
//                         each a batch of lookups covering every pending
//                         node (the tree takes edges as they arrive),
//  - flow_evals_baseline  evaluations the recompute-everything baseline
//                         would have run (counted by the same code path),
//  - recheck_savings      baseline / (flow_evals + domtree_passes), the
//                         E11 acceptance bar (>= 10x),
//  - degree_prunes        evaluations skipped by Menger's degree bounds,
//  - cut_skips            evaluations skipped by a cached max-flow cut,
//  - messages/kilobytes   discovery traffic (~quadratic, DESIGN.md E5),
//  - cert_entries_received certificates delivered to correct processes
//                         (one per DISCOVER, one per gossiped entry); E11's
//                         target is wall time per entry, which bounds the
//                         work per unit of input rather than per node.
// Wall times mean something only from runs of at least a second per row;
// the smoke and CI runs use a 0.01 s minimum and gate counters only.
// The FullStack rows run the same large_scale_scenario family end to end
// (BFT-CUP: discovery -> PBFT -> decide) to show the pipeline, not just the
// oracle, at large n. The
// PayloadSharing rows report the shared-payload counters of the discovery
// broadcast plane on E12 scenario shapes: payload_shared / (payload_builds
// + payload_shared) is the fraction of sends served by a cached message
// instead of a fresh construction + size walk.
#include "bench_common.hpp"

#include "core/adversaries.hpp"
#include "core/scenario_matrix.hpp"
#include "cup/sink_discovery.hpp"
#include "sim/composed.hpp"
#include "sim/simulation.hpp"

namespace scup {
namespace {

class DiscoveryOnlyNode : public sim::ComposedNode {
 public:
  DiscoveryOnlyNode(NodeSet pd, std::size_t f)
      : ComposedNode(f), discovery_(*this, std::move(pd)) {}
  void start() override { discovery_.start(); }
  void on_message(ProcessId from, const sim::MessagePtr& msg) override {
    discovery_.handle(from, *msg);
  }
  cup::SinkDiscovery discovery_;
};

struct ScaleRun {
  cup::DiscoveryStats stats;  // summed over correct processes
  std::size_t messages = 0;
  std::size_t bytes = 0;
  SimTime last_tick = 0;
  bool sink_members_finished = true;
  bool sink_exact = true;
};

ScaleRun run_discovery(std::size_t n, std::size_t f, std::uint64_t seed) {
  core::LargeScaleParams params;
  params.n = n;
  params.f = f;
  params.seed = seed;
  const core::ScenarioConfig cfg = core::large_scale_scenario(params);
  const NodeSet sink = graph::unique_sink_component(cfg.graph);
  const NodeSet correct = cfg.faulty.complement();

  sim::Simulation sim(n, cfg.net);
  std::vector<DiscoveryOnlyNode*> nodes(n, nullptr);
  for (ProcessId i = 0; i < n; ++i) {
    if (cfg.faulty.contains(i)) {
      sim.emplace_process<core::SilentNode>(i);
    } else {
      nodes[i] = &sim.emplace_process<DiscoveryOnlyNode>(i, cfg.graph.pd_of(i),
                                                         f);
    }
  }
  sim.start();
  // Only sink members can complete the direct match (Lemma 6); non-sink
  // processes rely on Algorithm 3's indirect path, out of scope here.
  const NodeSet correct_sink = sink & correct;
  sim.run_until(
      [&] {
        for (ProcessId i : correct_sink) {
          if (!nodes[i]->discovery_.finished()) return false;
        }
        return true;
      },
      cfg.deadline);

  ScaleRun r;
  r.messages = sim.metrics().messages_sent;
  r.bytes = sim.metrics().bytes_sent;
  r.last_tick = sim.now();
  for (ProcessId i : correct) {
    const auto& d = nodes[i]->discovery_;
    r.stats.flow_evals += d.stats().flow_evals;
    r.stats.flow_evals_baseline += d.stats().flow_evals_baseline;
    r.stats.degree_prunes += d.stats().degree_prunes;
    r.stats.cut_skips += d.stats().cut_skips;
    r.stats.domtree_passes += d.stats().domtree_passes;
    r.stats.updates += d.stats().updates;
    r.stats.dirty_updates += d.stats().dirty_updates;
    r.stats.cert_entries_received += d.stats().cert_entries_received;
  }
  for (ProcessId i : correct_sink) {
    if (!nodes[i]->discovery_.finished()) {
      r.sink_members_finished = false;
    } else if (!(nodes[i]->discovery_.sink() == sink)) {
      r.sink_exact = false;
    }
  }
  return r;
}

void BM_ScaleDiscovery_Sweep(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t f = static_cast<std::size_t>(state.range(1));
  // Every iteration runs seed 1, so the reported counters do not depend on
  // how many iterations the harness picks.
  ScaleRun r;
  for (auto _ : state) {
    r = run_discovery(n, f, /*seed=*/1);
    benchmark::DoNotOptimize(r);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["f"] = static_cast<double>(f);
  state.counters["nodes_per_sec"] = benchmark::Counter(
      static_cast<double>(n), benchmark::Counter::kIsIterationInvariantRate);
  state.counters["flow_evals"] = static_cast<double>(r.stats.flow_evals);
  state.counters["domtree_passes"] =
      static_cast<double>(r.stats.domtree_passes);
  state.counters["flow_evals_baseline"] =
      static_cast<double>(r.stats.flow_evals_baseline);
  // Admission work actually paid: max-flow runs plus dominator passes
  // (each pass is one batch of lookups in the kept dominator tree covering
  // every pending node). The baseline is one max-flow run per pending node
  // per dirty update — what the pre-incremental algorithm executed.
  const double admission_evals =
      static_cast<double>(r.stats.flow_evals + r.stats.domtree_passes);
  state.counters["recheck_savings"] =
      admission_evals == 0.0
          ? 0.0
          : static_cast<double>(r.stats.flow_evals_baseline) /
                admission_evals;
  state.counters["degree_prunes"] = static_cast<double>(r.stats.degree_prunes);
  state.counters["cut_skips"] = static_cast<double>(r.stats.cut_skips);
  state.counters["messages"] = static_cast<double>(r.messages);
  state.counters["kilobytes"] = static_cast<double>(r.bytes) / 1024.0;
  state.counters["cert_entries_received"] =
      static_cast<double>(r.stats.cert_entries_received);
  state.counters["sim_ticks"] = static_cast<double>(r.last_tick);
  state.counters["all_sink_finished"] = r.sink_members_finished ? 1 : 0;
  state.counters["sink_exact"] = r.sink_exact ? 1 : 0;
}
BENCHMARK(BM_ScaleDiscovery_Sweep)
    ->ArgsProduct({{64, 128, 256, 512}, {1}})
    ->Args({256, 2})
    ->Unit(benchmark::kMillisecond);

void BM_ScaleDiscovery_FullStack(benchmark::State& state) {
  // The end-to-end rows run as a ScenarioMatrix: one variant (the
  // large_scale_scenario family at this n), a two-seed sweep, `threads`
  // pool workers. Counters aggregate over the matrix and are
  // thread-count-invariant (cells are bit-deterministic).
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t threads = static_cast<std::size_t>(state.range(1));
  core::ScenarioMatrix matrix;
  matrix
      .add_variant("bftcup/large_scale",
                   [n](std::uint64_t seed) {
                     core::LargeScaleParams params;
                     params.n = n;
                     params.f = 1;
                     params.protocol = core::ProtocolKind::kBftCup;
                     params.seed = seed;
                     return core::large_scale_scenario(params);
                   })
      .seeds({3, 4});
  std::vector<core::CellResult> results;
  for (auto _ : state) {
    results = matrix.run(threads);
    benchmark::DoNotOptimize(results);
  }
  const core::MatrixSummary s = core::ScenarioMatrix::summarize(results);
  state.counters["n"] = static_cast<double>(n);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["cells"] = static_cast<double>(s.cells);
  state.counters["nodes_per_sec"] = benchmark::Counter(
      static_cast<double>(n * s.cells),
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["termination"] = s.decided_cells == s.cells ? 1 : 0;
  state.counters["agreement"] = s.agreement_cells == s.cells ? 1 : 0;
  state.counters["validity"] = s.validity_cells == s.cells ? 1 : 0;
  state.counters["sd_exact"] = s.sd_exact_cells == s.cells ? 1 : 0;
  state.counters["messages"] = static_cast<double>(s.messages);
  state.counters["kilobytes"] = static_cast<double>(s.bytes) / 1024.0;
  state.counters["p99_decide"] = static_cast<double>(s.p99_decision);
}
BENCHMARK(BM_ScaleDiscovery_FullStack)
    ->ArgNames({"n", "threads"})
    ->Args({64, 1})
    ->Args({64, 8})
    ->Args({96, 8})
    ->Unit(benchmark::kMillisecond);

void BM_DiscoveryPayloadSharing(benchmark::State& state) {
  // E12 scenario shapes through the shared-payload discovery plane. The
  // requery shape retransmits DISCOVER/KNOWN on a timer, which is where
  // payload sharing pays: every retransmission hits the cache.
  const auto protocol = static_cast<core::ProtocolKind>(state.range(0));
  const bool with_loss = state.range(1) != 0;
  double builds = 0;
  double shared = 0;
  std::size_t decided = 0;
  for (auto _ : state) {
    core::ChurnPartitionParams p;
    p.protocol = protocol;
    p.seed = 3;
    p.with_partition = true;
    if (with_loss) p.pre_gst_drop = 0.2;
    const core::ScenarioReport r =
        core::run_scenario(core::churn_partition_scenario(p));
    if (!r.all_decided) {
      state.SkipWithError("scenario failed to decide");
      return;
    }
    builds = static_cast<double>(
        r.metrics.protocol_counter(sim::ProtoCounter::kDiscoveryPayloadBuilds));
    shared = static_cast<double>(
        r.metrics.protocol_counter(sim::ProtoCounter::kDiscoveryPayloadShared));
    ++decided;
  }
  state.counters["payload_builds"] = builds;
  state.counters["payload_shared"] = shared;
  state.counters["sharing_ratio"] =
      builds + shared == 0 ? 0.0 : shared / (builds + shared);
  state.counters["decided_runs"] = static_cast<double>(decided);
}
BENCHMARK(BM_DiscoveryPayloadSharing)
    ->ArgNames({"proto", "loss"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace scup

SCUP_BENCH_MAIN("E11");
