#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>

#include "bftcup/bftcup_node.hpp"
#include "core/adversaries.hpp"
#include "core/ledger_node.hpp"
#include "core/stellar_cup_node.hpp"
#include "graph/scc.hpp"
#include "sim/simulation.hpp"

namespace scup::perf {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Installs a plain T, or a Timed<T> charging `trace` when tracing.
template <typename T, typename... Args>
T& install(sim::Simulation& sim, ProcessId id, CellTrace* trace,
           Args&&... args) {
  if (trace != nullptr) {
    return sim.emplace_process<Timed<T>>(id, *trace,
                                         std::forward<Args>(args)...);
  }
  return sim.emplace_process<T>(id, std::forward<Args>(args)...);
}

/// Per-slot proposal of ledger replica i: 16 contending proposals per slot,
/// as in E13.
Value ledger_proposal(std::uint64_t seed, std::uint64_t slot, ProcessId i) {
  return hash_mix(0xE13, seed ^ slot, i % 16) | 1;
}

/// A unit after set-up: the simulation with every process installed.
struct Cell {
  core::ScenarioConfig config;
  NodeSet correct;
  std::unique_ptr<CellTrace> trace;
  std::unique_ptr<sim::Simulation> sim;
  std::vector<core::StellarCupNode*> stellar;
  std::vector<bftcup::BftCupNode*> bft;
  std::vector<core::LedgerNode*> ledger;
  /// Ledger: close tick of each slot, per replica.
  std::vector<std::vector<SimTime>> closes;
};

void install_adversary(Cell& cell, ProcessId i) {
  const core::ScenarioConfig& config = cell.config;
  sim::Simulation& sim = *cell.sim;
  CellTrace* trace = cell.trace.get();
  const NodeSet pd = config.graph.pd_of(i);
  const std::size_t n = config.graph.node_count();
  // Same fabrications as core::run_scenario's installer.
  switch (config.adversary) {
    case core::AdversaryKind::kSilent:
      install<core::SilentNode>(sim, i, trace);
      return;
    case core::AdversaryKind::kDiscoveryLiar: {
      const NodeSet sink = graph::unique_sink_component(config.graph);
      NodeSet fake(n);
      for (ProcessId v = 0; v < n && fake.count() < 2; ++v) {
        if (!sink.contains(v) && v != i) fake.add(v);
      }
      if (fake.empty()) fake = pd;
      install<core::DiscoveryLiarNode>(sim, i, trace, pd, fake, config.f);
      return;
    }
    case core::AdversaryKind::kDiscoveryEquivocator: {
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
      install<core::DiscoveryLiarNode>(sim, i, trace, pd, fake_a, config.f,
                                       std::optional<NodeSet>(fake_b));
      return;
    }
    case core::AdversaryKind::kScpEquivocator:
      install<core::ScpEquivocatorNode>(sim, i, trace, pd, config.f,
                                        Value{1}, Value{2});
      return;
  }
  throw std::logic_error("unknown adversary kind");
}

std::unique_ptr<Cell> prepare(const Unit& unit, bool traced) {
  auto cell = std::make_unique<Cell>();
  cell->config = unit.scenario();
  const core::ScenarioConfig& config = cell->config;
  const std::size_t n = config.graph.node_count();
  cell->correct = config.faulty.complement();

  std::unique_ptr<sim::NetworkModel> model =
      std::make_unique<sim::UniformModel>(config.net);
  if (traced) {
    cell->trace = std::make_unique<CellTrace>(n);
    model = std::make_unique<TimedModel>(std::move(model), *cell->trace);
  }
  cell->sim =
      std::make_unique<sim::Simulation>(n, config.net, std::move(model));
  sim::Simulation& sim = *cell->sim;
  CellTrace* trace = cell->trace.get();
  cell->stellar.assign(n, nullptr);
  cell->bft.assign(n, nullptr);
  cell->ledger.assign(n, nullptr);
  cell->closes.resize(n);

  cup::DiscoveryConfig discovery;
  discovery.requery_interval = config.discovery_requery;
  for (ProcessId i = 0; i < n; ++i) {
    if (config.faulty.contains(i)) {
      install_adversary(*cell, i);
      continue;
    }
    const NodeSet pd = config.graph.pd_of(i);
    if (unit.ledger_slots > 0) {
      core::LedgerNode& node = install<core::LedgerNode>(
          sim, i, trace, pd, config.f, unit.ledger_slots,
          scp::ScpConfig{}, discovery);
      node.set_value_provider([seed = unit.seed, i](std::uint64_t slot) {
        return ledger_proposal(seed, slot, i);
      });
      // Chained, not replaced: LedgerNode's own handler still runs first.
      auto& on_decided = node.ledger().on_slot_decided;
      on_decided = [inner = std::move(on_decided), closes = &cell->closes[i],
                    simulation = &sim](std::uint64_t slot, Value value) {
        inner(slot, value);
        closes->push_back(simulation->now());
      };
      cell->ledger[i] = &node;
      continue;
    }
    const Value value = i < config.values.size() ? config.values[i]
                                                 : core::default_value(i);
    if (config.protocol == core::ProtocolKind::kStellarSd) {
      core::StellarCupConfig node_config;
      node_config.discovery = discovery;
      cell->stellar[i] = &install<core::StellarCupNode>(
          sim, i, trace, pd, config.f, value, node_config);
    } else {
      cell->bft[i] = &install<bftcup::BftCupNode>(
          sim, i, trace, pd, config.f, value, bftcup::PbftConfig{},
          discovery);
    }
  }
  for (ProcessId i = 0; i < n && i < config.activations.size(); ++i) {
    if (config.activations[i] > 0) sim.activate(i, config.activations[i]);
  }
  for (const auto& [who, when] : config.crashes) sim.crash_at(who, when);
  return cell;
}

void fail(UnitResult& r, const std::string& property) {
  if (r.failure.empty()) r.failure = property;
}

bool decided(const Cell& cell, ProcessId i) {
  return cell.stellar[i] != nullptr ? cell.stellar[i]->decided()
                                    : cell.bft[i]->decided();
}

/// Starts the simulation and runs it until every correct replica is done:
/// the ledger stride and deadline are E13's, the one-shot ones
/// core::run_scenario's.
void run(Cell& cell, const Unit& unit) {
  sim::Simulation& sim = *cell.sim;
  sim.start();
  if (unit.ledger_slots > 0) {
    sim.run_until(
        [&] {
          for (ProcessId i : cell.correct) {
            if (cell.ledger[i]->decided_slots() < unit.ledger_slots) {
              return false;
            }
          }
          return true;
        },
        cell.config.deadline * 4, /*stride=*/64);
    return;
  }
  sim.run_until(
      [&] {
        for (ProcessId i : cell.correct) {
          if (!sim.crashed(i) && !decided(cell, i)) return false;
        }
        return true;
      },
      cell.config.deadline);
}

void check_ledger(const Cell& cell, const Unit& unit, UnitResult& r) {
  const std::size_t slots = unit.ledger_slots;
  r.attempted = slots;
  const ProcessId first = cell.correct.min_member();
  std::size_t closed = slots;
  for (ProcessId i : cell.correct) {
    const core::LedgerNode& node = *cell.ledger[i];
    closed = std::min<std::size_t>(closed, node.decided_slots());
    r.witness.chain_digests.push_back(node.chain_digest());
    // Slot 1 has no previous close: its ticks include sink discovery, so
    // only the later slots are samples.
    SimTime previous = 0;
    for (SimTime close : cell.closes[i]) {
      r.witness.decide_ticks.push_back(close - previous);
      if (previous > 0) r.decide_samples.push_back(close - previous);
      previous = close;
    }
  }
  bool safe = true;
  if (closed < slots) fail(r, "termination: a replica closed too few slots");
  for (ProcessId i : cell.correct) {
    // Full chains must hash alike; shorter ones must agree slot by slot.
    const core::LedgerNode& node = *cell.ledger[i];
    bool agrees = closed < slots || node.chain_digest() ==
                                        cell.ledger[first]->chain_digest();
    for (std::uint64_t slot = 1; slot <= closed; ++slot) {
      agrees = agrees && node.slot_decision(slot) ==
                             cell.ledger[first]->slot_decision(slot);
    }
    if (!agrees) {
      fail(r, "agreement: replica chains differ");
      safe = false;
    }
  }
  for (std::uint64_t slot = 1; slot <= closed; ++slot) {
    const Value decided = cell.ledger[first]->slot_decision(slot);
    r.witness.decisions.push_back(decided);
    bool proposed = false;
    for (ProcessId i : cell.correct) {
      proposed = proposed || decided == ledger_proposal(unit.seed, slot, i);
    }
    if (!proposed) {
      fail(r, "validity: a slot decided a value nobody proposed");
      safe = false;
    }
  }
  r.failed = safe ? slots - closed : slots;
}

/// The consensus properties, checked as core::run_scenario checks them.
void check_one_shot(const Cell& cell, UnitResult& r) {
  const sim::Simulation& sim = *cell.sim;
  const core::ScenarioConfig& config = cell.config;
  const std::size_t n = config.graph.node_count();
  r.attempted = 1;
  r.witness.decisions.assign(n, kNoValue);
  r.witness.decide_ticks.assign(n, kTimeInfinity);
  const NodeSet true_sink = graph::unique_sink_component(config.graph);
  std::optional<Value> agreed;
  for (ProcessId i : cell.correct) {
    if (!decided(cell, i)) {
      if (!sim.crashed(i)) {
        fail(r, "termination: a correct process is undecided");
      }
      continue;
    }
    const Value v = cell.stellar[i] != nullptr ? cell.stellar[i]->decision()
                                               : cell.bft[i]->decision();
    const SimTime t = cell.stellar[i] != nullptr
                          ? cell.stellar[i]->decision_time()
                          : cell.bft[i]->decision_time();
    r.witness.decisions[i] = v;
    r.witness.decide_ticks[i] = t;
    if (!sim.crashed(i)) r.decide_samples.push_back(t);
    if (!agreed) agreed = v;
    if (*agreed != v) fail(r, "agreement: two correct processes disagree");
    const bool has_sink = cell.stellar[i] != nullptr
                              ? cell.stellar[i]->sink_detected()
                              : cell.bft[i]->sink_detected();
    if (has_sink) {
      const auto& result = cell.stellar[i] != nullptr
                               ? cell.stellar[i]->sink_result()
                               : cell.bft[i]->sink_result();
      r.sd_observed += 1;
      if (result.sink == true_sink) r.sd_exact += 1;
    }
  }
  if (agreed) {
    bool valid = config.adversary == core::AdversaryKind::kScpEquivocator &&
                 (*agreed == 1 || *agreed == 2);
    for (ProcessId i = 0; i < n; ++i) {
      const Value proposal = i < config.values.size() ? config.values[i]
                                                      : core::default_value(i);
      valid = valid || *agreed == proposal;
    }
    if (!valid) fail(r, "validity: the decided value was never proposed");
  }
  r.failed = r.failure.empty() ? 0 : 1;
  for (ProcessId i : cell.correct) {
    if (cell.stellar[i] == nullptr) continue;
    const cup::DiscoveryStats& s =
        cell.stellar[i]->detector().discovery().stats();
    r.flow_evals += s.flow_evals;
    r.flow_evals_baseline += s.flow_evals_baseline;
    r.domtree_passes += s.domtree_passes;
  }
}

}  // namespace

UnitResult run_unit(const Unit& unit, bool traced) {
  UnitResult r;
  r.label = unit.label;
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<Cell> cell = prepare(unit, traced);
  const Clock::time_point t1 = Clock::now();
  const std::uint64_t allocs_before = thread_allocs();
  run(*cell, unit);
  r.run_allocs = thread_allocs() - allocs_before;
  const Clock::time_point t2 = Clock::now();
  if (unit.ledger_slots > 0) {
    check_ledger(*cell, unit, r);
  } else {
    check_one_shot(*cell, r);
  }
  r.witness.metrics = cell->sim->metrics();
  r.witness.end_tick = cell->sim->now();
  if (traced) {
    r.layers = cell->trace->finish();
    r.pool = cell->sim->pool_stats();
    for (ProcessId i : cell->correct) {
      const SimTime tick = cell->trace->sink_ticks()[i];
      if (tick != kTimeInfinity) r.sd_ticks.push_back(tick);
    }
  }
  cell.reset();
  const Clock::time_point t3 = Clock::now();
  r.setup_s = seconds_between(t0, t1);
  r.run_s = seconds_between(t1, t2);
  r.wall_s = seconds_between(t0, t3);
  return r;
}

bool matches_run_scenario(const Unit& unit, const UnitResult& result) {
  if (unit.ledger_slots > 0) return true;
  const core::ScenarioReport report = core::run_scenario(unit.scenario());
  return report.metrics == result.witness.metrics &&
         report.decision_times == result.witness.decide_ticks &&
         report.end_time == result.witness.end_tick;
}

namespace {

/// A large_scale_scenario cell (E11/E13 graph family): a one-shot instance
/// on `protocol`, or a LedgerNode chain when `ledger_slots` > 0.
Unit large_scale_unit(core::ProtocolKind protocol, std::size_t n,
                      std::uint64_t seed, std::size_t ledger_slots = 0) {
  Unit u;
  const char* kind = ledger_slots > 0 ? "ledger"
                     : protocol == core::ProtocolKind::kStellarSd
                         ? "stellar"
                         : "bftcup";
  u.label = std::string(kind) + " n=" + std::to_string(n) +
            " seed=" + std::to_string(seed);
  u.scenario = [protocol, n, seed] {
    core::LargeScaleParams params;
    params.n = n;
    params.f = 1;
    params.seed = seed;
    params.protocol = protocol;
    return core::large_scale_scenario(params);
  };
  u.ledger_slots = ledger_slots;
  u.seed = seed;
  return u;
}

/// One paper-sweep variant: an E12 shape (0 churn, 1 churn+partition,
/// 2 churn+partition+20% pre-GST loss, 3 churn+partition+crash) with the
/// placed Byzantine process running `adversary`.
struct SweepVariant {
  const char* label;
  core::ProtocolKind protocol;
  int shape;
  core::AdversaryKind adversary;
};

const std::vector<SweepVariant>& sweep_variants() {
  using core::AdversaryKind;
  using core::ProtocolKind;
  static const std::vector<SweepVariant> variants = {
      {"stellar/churn", ProtocolKind::kStellarSd, 0, AdversaryKind::kSilent},
      {"stellar/churn+partition", ProtocolKind::kStellarSd, 1,
       AdversaryKind::kSilent},
      {"stellar/churn+partition+loss", ProtocolKind::kStellarSd, 2,
       AdversaryKind::kSilent},
      {"stellar/churn+partition+crash", ProtocolKind::kStellarSd, 3,
       AdversaryKind::kSilent},
      {"stellar/churn+partition+discovery-equivocator",
       ProtocolKind::kStellarSd, 1, AdversaryKind::kDiscoveryEquivocator},
      {"stellar/churn+partition+scp-equivocator", ProtocolKind::kStellarSd, 1,
       AdversaryKind::kScpEquivocator},
      {"bftcup/churn", ProtocolKind::kBftCup, 0, AdversaryKind::kSilent},
      {"bftcup/churn+partition", ProtocolKind::kBftCup, 1,
       AdversaryKind::kSilent},
      {"bftcup/churn+partition+loss", ProtocolKind::kBftCup, 2,
       AdversaryKind::kSilent},
      {"bftcup/churn+partition+crash", ProtocolKind::kBftCup, 3,
       AdversaryKind::kSilent},
      {"bftcup/churn+partition+discovery-equivocator", ProtocolKind::kBftCup,
       1, AdversaryKind::kDiscoveryEquivocator},
  };
  return variants;
}

Unit sweep_cell(const SweepVariant& v, std::size_t n, std::uint64_t seed) {
  Unit u;
  u.label = std::string(v.label) + " n=" + std::to_string(n) +
            " seed=" + std::to_string(seed);
  u.scenario = [v, n, seed] {
    core::ChurnPartitionParams p;
    p.n = n;
    p.f = 1;
    p.protocol = v.protocol;
    p.seed = seed;
    p.gst = 2'000;
    p.late_fraction = 0.5;
    p.with_partition = v.shape != 0;
    p.pre_gst_drop = v.shape == 2 ? 0.2 : 0.0;
    p.with_crash = v.shape == 3;
    core::ScenarioConfig config = core::churn_partition_scenario(p);
    config.adversary = v.adversary;
    return config;
  };
  return u;
}

/// The seed of input `k` of a batch under workload seed `seed`. Hashed, so
/// that two workload seeds share no inputs, however close they are.
std::uint64_t input_seed(std::uint64_t seed, std::uint64_t k) {
  return hash_mix(0xBE4C, seed, k);
}

/// Cells are variant-major over `seeds` input seeds per round, as a
/// core::ScenarioMatrix lays them out.
std::vector<Unit> sweep_round(std::size_t n, std::uint64_t seeds,
                              std::uint64_t seed, std::uint64_t round) {
  std::vector<Unit> units;
  for (const SweepVariant& v : sweep_variants()) {
    for (std::uint64_t k = 0; k < seeds; ++k) {
      units.push_back(sweep_cell(v, n, input_seed(seed, round * seeds + k)));
    }
  }
  return units;
}

/// Workload shapes (the names stay those of the full sizes). A batch is
/// `*_chains` / `*_cells` rounds; paper-sweep's is `sweep_rounds` rounds of
/// `sweep_seeds` seeds × every variant.
struct Sizes {
  std::size_t ledger_n, ledger_slots, ledger_chains;
  std::size_t stellar_n, stellar_cells;
  std::size_t bftcup_n, bftcup_cells;
  std::size_t sweep_n, sweep_seeds, sweep_rounds;
};

std::vector<Workload> make_workloads(const Sizes& s) {
  std::vector<Workload> w(4);
  w[0].name = "ledger-n16";
  w[0].batch_rounds = s.ledger_chains;
  w[0].round = [s](std::uint64_t seed, std::uint64_t round) {
    return std::vector<Unit>{
        large_scale_unit(core::ProtocolKind::kStellarSd, s.ledger_n,
                         input_seed(seed, round), s.ledger_slots)};
  };
  w[1].name = "stellar-n22";
  w[1].batch_rounds = s.stellar_cells;
  w[1].round = [s](std::uint64_t seed, std::uint64_t round) {
    return std::vector<Unit>{large_scale_unit(
        core::ProtocolKind::kStellarSd, s.stellar_n, input_seed(seed, round))};
  };
  w[2].name = "bftcup-n128";
  w[2].batch_rounds = s.bftcup_cells;
  w[2].round = [s](std::uint64_t seed, std::uint64_t round) {
    return std::vector<Unit>{large_scale_unit(
        core::ProtocolKind::kBftCup, s.bftcup_n, input_seed(seed, round))};
  };
  w[3].name = "paper-sweep";
  // A fixed thread count, not derived from the host, so the run shape is
  // the same everywhere.
  w[3].threads = 2;
  w[3].batch_rounds = s.sweep_rounds;
  w[3].round = [s](std::uint64_t seed, std::uint64_t round) {
    return sweep_round(s.sweep_n, s.sweep_seeds, seed, round);
  };
  return w;
}

}  // namespace

// A batch takes about 6 s on the 4-core reference host (bftcup-n128's about
// 2 s), so a 12 s run makes two passes (bftcup-n128 about six). Its size is
// set by the exact metrics, which must be steady from one workload seed to
// the next (benchmark/README.md, "Sizes"):
// - ledger-n16: 26 chains keep the median slot latency within a tick or two;
// - stellar-n22: 20-40% of the cells of a batch decide only after a ballot
//   timeout (~260 ticks instead of ~60); with 36 cells that share stays
//   clear of both 5% and 50%, so the 95th percentile stays in the slow mode
//   and the median in the fast one;
// - bftcup-n128: about 1 cell in 100 has a view change that moves all of its
//   processes to ~450 ticks; with 2 cells few seeds draw one, where 8 cells
//   moved the 95th percentile on one seed in ten.
std::vector<Workload> workloads() {
  return make_workloads({16, 6, 26, 22, 36, 128, 2, 20, 4, 5});
}

std::vector<Workload> smoke_workloads() {
  return make_workloads({16, 3, 1, 10, 1, 16, 2, 10, 1, 1});
}

}  // namespace scup::perf
