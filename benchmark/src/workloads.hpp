// The benchmark's workloads and the runner for one simulation ("unit").
//
// A unit is either a LedgerNode chain (a run of consecutive consensus
// instances, E13's shape) or a one-shot consensus cell (one instance with
// StellarCupNode or BftCupNode replicas). The runner mirrors
// core::run_scenario through public API only, so the same code can install
// plain or Timed<> nodes; --smoke checks it against run_scenario.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "sim/message_pool.hpp"
#include "trace.hpp"

namespace scup::perf {

struct Unit {
  std::string label;
  /// Scenario generation. Runs inside the timed set-up.
  std::function<core::ScenarioConfig()> scenario;
  /// > 0: LedgerNode replicas close this many slots; 0: one consensus
  /// instance on the scenario's protocol.
  std::size_t ledger_slots = 0;
  /// Seeds the ledger replicas' per-slot proposals.
  std::uint64_t seed = 0;
};

/// Everything a plain and a traced run of one unit must agree on. The
/// Notary fingerprint is left out on purpose: neither SCP nor discovery
/// signs anything, so it does not tell Stellar runs apart.
struct Witness {
  sim::SimMetrics metrics;
  /// One-shot: each process's decision (kNoValue if none). Ledger: the
  /// first correct replica's decision per slot.
  std::vector<Value> decisions;
  /// One-shot: each process's decision tick (kTimeInfinity if none).
  /// Ledger: ticks from the previous close, per replica and slot.
  std::vector<SimTime> decide_ticks;
  std::vector<std::uint64_t> chain_digests;  // ledger only, per replica
  SimTime end_tick = 0;

  bool operator==(const Witness&) const = default;
};

struct UnitResult {
  std::string label;
  std::size_t attempted = 0;  // consensus instances
  std::size_t failed = 0;
  std::string failure;  // first violated property; empty if none
  /// Ticks to decide: per correct live process (one-shot), or per correct
  /// replica and slot from slot 2 on, counted from the previous close
  /// (ledger).
  std::vector<SimTime> decide_samples;
  double setup_s = 0.0;  // scenario generation, placement, node construction
  double run_s = 0.0;    // start() through the run loop
  double wall_s = 0.0;   // set-up, run, checks and teardown
  Witness witness;

  // Filled by traced runs only.
  LayerTotals layers;
  sim::MessagePool::Stats pool;
  std::uint64_t run_allocs = 0;  // heap allocations inside the run loop
  std::vector<SimTime> sd_ticks;  // per correct process with a result
  std::size_t sd_observed = 0;    // results readable through public API
  std::size_t sd_exact = 0;       // ... that equal the true sink
  std::uint64_t flow_evals = 0;
  std::uint64_t flow_evals_baseline = 0;
  std::uint64_t domtree_passes = 0;
};

UnitResult run_unit(const Unit& unit, bool traced);

/// Runs a one-shot unit through core::run_scenario and reports whether the
/// library's report matches `result` (metrics, decision ticks, end tick).
/// Ledger units have no library runner and always match.
bool matches_run_scenario(const Unit& unit, const UnitResult& result);

struct Workload {
  std::string name;
  std::size_t threads = 1;
  /// Rounds 0 .. batch_rounds-1 are the workload's fixed input set, the
  /// batch: every pass of the loop and the traced run cover exactly these.
  std::size_t batch_rounds = 1;
  /// Round `round` of the batch under workload seed `seed`.
  std::function<std::vector<Unit>(std::uint64_t seed, std::uint64_t round)>
      round;
};

/// The benchmark's workloads, in BENCHMARK.json order.
std::vector<Workload> workloads();
/// The same workloads at toy size (the --smoke preset).
std::vector<Workload> smoke_workloads();

}  // namespace scup::perf
