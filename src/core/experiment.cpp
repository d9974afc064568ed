#include "core/experiment.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "bftcup/bftcup_node.hpp"
#include "core/adversaries.hpp"
#include "core/stellar_cup_node.hpp"
#include "graph/generators.hpp"
#include "graph/scc.hpp"

namespace scup::core {

Value default_value(ProcessId i) { return 1000 + i; }

namespace {

/// Installs the adversary implementation for faulty process `i`.
void install_adversary(sim::Simulation& sim, const ScenarioConfig& config,
                       ProcessId i) {
  const NodeSet pd = config.graph.pd_of(i);
  const std::size_t n = config.graph.node_count();
  switch (config.adversary) {
    case AdversaryKind::kSilent:
      sim.emplace_process<SilentNode>(i);
      return;
    case AdversaryKind::kDiscoveryLiar: {
      // Fabricate edges to the two lowest non-sink ids (dragging outsiders
      // toward the sink estimate) — the attack Theorem-6's filter defeats.
      const NodeSet sink = graph::unique_sink_component(config.graph);
      NodeSet fake(n);
      for (ProcessId v = 0; v < n && fake.count() < 2; ++v) {
        if (!sink.contains(v) && v != i) fake.add(v);
      }
      if (fake.empty()) fake = pd;
      sim.emplace_process<DiscoveryLiarNode>(i, pd, fake, config.f);
      return;
    }
    case AdversaryKind::kDiscoveryEquivocator: {
      const NodeSet sink = graph::unique_sink_component(config.graph);
      NodeSet fake_a(n), fake_b(n);
      for (ProcessId v = 0; v < n; ++v) {
        if (sink.contains(v) || v == i) continue;
        if (fake_a.count() < 1) {
          fake_a.add(v);
        } else if (fake_b.count() < 1) {
          fake_b.add(v);
        }
      }
      if (fake_a.empty()) fake_a = pd;
      if (fake_b.empty()) fake_b = pd;
      sim.emplace_process<DiscoveryLiarNode>(i, pd, fake_a, config.f, fake_b);
      return;
    }
    case AdversaryKind::kScpEquivocator:
      sim.emplace_process<ScpEquivocatorNode>(i, pd, config.f,
                                              /*value_a=*/1, /*value_b=*/2);
      return;
  }
  throw std::logic_error("unknown adversary kind");
}

}  // namespace

ScenarioReport run_scenario(const ScenarioConfig& config) {
  const std::size_t n = config.graph.node_count();
  // Crash faults and Byzantine placements share the failure budget.
  NodeSet failure_budget = config.faulty;
  for (const auto& [who, when] : config.crashes) {
    if (who >= n) throw std::invalid_argument("run_scenario: bad crash id");
    if (when < 0) throw std::invalid_argument("run_scenario: bad crash time");
    failure_budget.add(who);
  }
  if (failure_budget.count() > config.f) {
    throw std::invalid_argument("run_scenario: |faulty ∪ crashed| > f");
  }

  sim::Simulation sim(n, config.net);
  std::vector<StellarCupNode*> stellar(n, nullptr);
  std::vector<bftcup::BftCupNode*> bft(n, nullptr);

  cup::DiscoveryConfig discovery;
  discovery.requery_interval = config.discovery_requery;
  for (ProcessId i = 0; i < n; ++i) {
    if (config.faulty.contains(i)) {
      install_adversary(sim, config, i);
      continue;
    }
    const Value value =
        i < config.values.size() ? config.values[i] : default_value(i);
    const NodeSet pd = config.graph.pd_of(i);
    if (config.protocol == ProtocolKind::kStellarSd) {
      StellarCupConfig node_config;
      node_config.discovery = discovery;
      stellar[i] = &sim.emplace_process<StellarCupNode>(i, pd, config.f, value,
                                                        node_config);
    } else {
      bft[i] = &sim.emplace_process<bftcup::BftCupNode>(
          i, pd, config.f, value, bftcup::PbftConfig{}, discovery);
    }
  }
  for (ProcessId i = 0; i < n && i < config.activations.size(); ++i) {
    if (config.activations[i] > 0) sim.activate(i, config.activations[i]);
  }
  for (const auto& [who, when] : config.crashes) sim.crash_at(who, when);

  const NodeSet correct = config.faulty.complement();
  // Termination is owed by correct processes that have not crash-stopped;
  // a crashed process may still have decided before its crash.
  auto all_decided = [&] {
    for (ProcessId i : correct) {
      if (sim.crashed(i)) continue;
      const bool decided = stellar[i] != nullptr ? stellar[i]->decided()
                                                 : bft[i]->decided();
      if (!decided) return false;
    }
    return true;
  };

  sim.start();
  sim.run_until(all_decided, config.deadline);

  ScenarioReport report;
  report.true_sink = graph::unique_sink_component(config.graph);
  report.decision_times.assign(n, kTimeInfinity);
  report.all_decided = true;
  report.agreement = true;
  report.sd_all_returned = true;
  report.sd_sink_exact = true;
  report.sd_flags_correct = true;
  report.sd_last_return = 0;

  std::optional<Value> agreed;
  for (ProcessId i : correct) {
    const bool decided =
        stellar[i] != nullptr ? stellar[i]->decided() : bft[i]->decided();
    if (!decided) {
      // Crash-stopped processes owe nothing further; everyone else does.
      if (!sim.crashed(i)) report.all_decided = false;
      continue;
    }
    const Value v =
        stellar[i] != nullptr ? stellar[i]->decision() : bft[i]->decision();
    const SimTime t = stellar[i] != nullptr ? stellar[i]->decision_time()
                                            : bft[i]->decision_time();
    report.decision_times[i] = t;
    report.first_decision = std::min(report.first_decision, t);
    if (report.last_decision == kTimeInfinity) report.last_decision = t;
    report.last_decision = std::max(report.last_decision, t);
    if (!agreed) {
      agreed = v;
    } else if (*agreed != v) {
      report.agreement = false;
    }

    const bool sd_done = stellar[i] != nullptr ? stellar[i]->sink_detected()
                                               : bft[i]->sink_detected();
    if (!sd_done) {
      report.sd_all_returned = false;
    } else {
      const auto& r = stellar[i] != nullptr ? stellar[i]->sink_result()
                                            : bft[i]->sink_result();
      if (!(r.sink == report.true_sink)) report.sd_sink_exact = false;
      if (r.is_sink_member != report.true_sink.contains(i)) {
        report.sd_flags_correct = false;
      }
      if (stellar[i] != nullptr) {
        report.sd_last_return =
            std::max(report.sd_last_return, stellar[i]->sink_detect_time());
      }
    }
  }
  if (agreed) {
    report.decided_value = *agreed;
    // Validity: the decided value was proposed by some process. Correct
    // proposals are known; the ScpEquivocator proposes {1, 2}; any process
    // may propose default_value(i).
    for (ProcessId i = 0; i < n; ++i) {
      const Value proposal =
          i < config.values.size() ? config.values[i] : default_value(i);
      if (*agreed == proposal) report.validity = true;
    }
    if (config.adversary == AdversaryKind::kScpEquivocator &&
        (*agreed == 1 || *agreed == 2)) {
      report.validity = true;
    }
  }

  report.metrics = sim.metrics();
  report.notary_fingerprint = sim.notary().fingerprint();
  report.end_time = sim.now();
  return report;
}

ScenarioConfig large_scale_scenario(const LargeScaleParams& params) {
  if (params.n < 4 * params.f + 2) {
    throw std::invalid_argument(
        "large_scale_scenario: need n >= 4f+2 (sink of 3f+1 plus at least "
        "f+1 non-sink processes)");
  }
  const auto fraction_size =
      static_cast<std::size_t>(static_cast<double>(params.n) *
                               params.sink_fraction);
  const std::size_t sink_size =
      std::clamp(fraction_size, 3 * params.f + 1, params.n - 1);

  graph::KosrGenParams gen;
  gen.sink_size = sink_size;
  gen.non_sink_size = params.n - sink_size;
  gen.k = 2 * params.f + 1;
  gen.seed = params.seed;

  ScenarioConfig cfg;
  cfg.graph = graph::random_kosr_graph(gen);
  cfg.f = params.f;
  cfg.faulty = NodeSet(params.n);
  if (params.with_faults && params.f > 0) {
    Rng rng(params.seed ^ 0xfa17ULL);
    cfg.faulty = graph::pick_safe_faulty_set(
        cfg.graph, graph::unique_sink_component(cfg.graph), params.f,
        /*allow_in_sink=*/true, rng);
  }
  cfg.protocol = params.protocol;
  cfg.net.seed = params.seed * 31 + 7;
  cfg.net.min_delay = 1;
  cfg.net.max_delay = 10;
  // Discovery alone costs O(n) message rounds; scale the deadline with n so
  // large instances are bounded by correctness, not by an arbitrary cap.
  cfg.deadline = 1'000'000 + static_cast<SimTime>(params.n) * 50'000;
  return cfg;
}

ScenarioConfig churn_partition_scenario(const ChurnPartitionParams& params) {
  if (params.n < 4 * params.f + 2) {
    throw std::invalid_argument("churn_partition_scenario: need n >= 4f+2");
  }
  if (params.late_fraction < 0.0 || params.late_fraction > 1.0) {
    throw std::invalid_argument(
        "churn_partition_scenario: late_fraction outside [0, 1]");
  }
  const auto fraction_size = static_cast<std::size_t>(
      static_cast<double>(params.n) * params.sink_fraction);
  const std::size_t sink_size =
      std::clamp(fraction_size, 3 * params.f + 1, params.n - 1);

  graph::KosrGenParams gen;
  gen.sink_size = sink_size;
  gen.non_sink_size = params.n - sink_size;
  gen.k = 2 * params.f + 1;
  gen.seed = params.seed;

  ScenarioConfig cfg;
  cfg.graph = graph::random_kosr_graph(gen);
  cfg.f = params.f;
  cfg.faulty = NodeSet(params.n);
  cfg.protocol = params.protocol;
  const NodeSet sink = graph::unique_sink_component(cfg.graph);

  // The failure budget goes either to a worst-case Byzantine placement or
  // to crash faults of the same placement at gst/2 — never both (|F| <= f).
  if (params.f > 0) {
    Rng placement_rng(params.seed ^ 0xfa17ULL);
    const NodeSet failures = graph::pick_safe_faulty_set(
        cfg.graph, sink, params.f, /*allow_in_sink=*/true, placement_rng);
    if (params.with_crash) {
      for (ProcessId p : failures) {
        cfg.crashes.emplace_back(p, params.gst / 2);
      }
    } else {
      cfg.faulty = failures;
    }
  }

  // Churn: a fraction of the correct non-sink processes activates late,
  // spread over (0, late_window]. Sink members all start at 0 — the sink
  // must exist for late joiners to discover.
  Rng churn_rng(params.seed ^ 0xc4c4ULL);
  std::vector<ProcessId> joiners;
  for (ProcessId i = 0; i < params.n; ++i) {
    if (!sink.contains(i) && !cfg.faulty.contains(i)) joiners.push_back(i);
  }
  churn_rng.shuffle(joiners);
  const auto late_count = static_cast<std::size_t>(
      static_cast<double>(joiners.size()) * params.late_fraction);
  if (late_count > 0 && params.late_window > 0) {
    cfg.activations.assign(params.n, 0);
    for (std::size_t k = 0; k < late_count; ++k) {
      cfg.activations[joiners[k]] =
          churn_rng.uniform_range(1, params.late_window);
    }
  }

  // Partition: half the sink is cut off from everyone else until GST (the
  // reliable-channel model requires the heal; crossing messages defer).
  cfg.net.gst = params.gst;
  if (params.with_partition && params.gst > 0) {
    NodeSet side(params.n);
    const std::size_t side_size = sink.count() / 2;
    for (ProcessId p : sink) {
      if (side.count() >= side_size) break;
      side.add(p);
    }
    if (!side.empty()) {
      cfg.net.partitions.push_back({std::move(side), 0, params.gst});
    }
  }
  cfg.net.pre_gst_drop = params.pre_gst_drop;
  // Loss breaks the one-shot query pattern of discovery; retransmission
  // restores liveness (see cup::DiscoveryConfig).
  if (params.pre_gst_drop > 0.0) cfg.discovery_requery = 250;
  cfg.net.min_delay = 1;
  cfg.net.max_delay = 10;
  cfg.net.pre_gst_max_delay = 200;
  cfg.net.seed = params.seed * 31 + 7;
  cfg.deadline = params.gst + 1'000'000 +
                 static_cast<SimTime>(params.n) * 50'000;
  return cfg;
}

std::string ScenarioReport::summary() const {
  std::ostringstream os;
  os << "decided=" << (all_decided ? "all" : "NOT-ALL")
     << " agreement=" << (agreement ? "yes" : "VIOLATED")
     << " validity=" << (validity ? "yes" : "NO") << " value=" << decided_value
     << " t_first=" << first_decision << " t_last=" << last_decision
     << " msgs=" << metrics.messages_sent << " bytes=" << metrics.bytes_sent;
  return os.str();
}

}  // namespace scup::core
