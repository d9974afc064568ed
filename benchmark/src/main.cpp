// scup-bench — the repository benchmark (see benchmark/README.md).
//
//   scup-bench --workload=<name> --seed=<s> [--seconds=<t>] [--trace]
//   scup-bench --smoke
//
// A plain run is a closed loop over the workload's fixed batch of rounds: a
// round is one simulation (for paper-sweep, a slice of the sweep on two
// threads) and starts when the previous one has finished. The loop makes
// passes over the batch while the next pass is expected to end within
// --seconds, and always at least two. It prints the end-to-end metrics;
// each round's time is the fastest of its passes, so a burst of load from
// elsewhere on the host has to hit every pass of a round to move it.
// --trace runs the batch once plain and once with Timed<> nodes, checks
// that both runs agree, and prints the per-layer metrics.
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. Exit 0: every check passed;
// 1: a consensus property, identity or reconciliation check failed;
// 2: usage error or an exception (no result line).
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario_matrix.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace scup::perf {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one mode (plain or traced) ran. Results are kept for the first
/// pass only, so the loop's memory footprint does not grow with its length.
struct Tally {
  std::vector<UnitResult> units;  // the batch's first pass, in loop order
  std::size_t passes = 0;
  std::size_t simulations = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::vector<double> best_setup_s;  // per batch simulation, fastest pass
  std::vector<double> best_round_s;  // per batch round, fastest pass
  std::vector<std::size_t> decided;  // per batch round, first pass
  double wall_s = 0.0;               // summed round walls
};

/// Keeps the smallest value seen at `index`, which is at most one past the
/// end.
void keep_min(std::vector<double>& best, std::size_t index, double value) {
  if (index == best.size()) {
    best.push_back(value);
  } else {
    best[index] = std::min(best[index], value);
  }
}

/// Runs round `round` of the batch, whose first simulation is the batch's
/// simulation `first_sim`, on the workload's threads and accounts it.
void run_round(const Workload& workload, const std::vector<Unit>& units,
               bool traced, std::size_t round, std::size_t first_sim,
               Tally& tally) {
  std::vector<UnitResult> results(units.size());
  const Clock::time_point start = Clock::now();
  core::parallel_cells(units.size(), workload.threads, [&](std::size_t i) {
    results[i] = run_unit(units[i], traced);
  });
  const double wall = seconds_since(start);
  const bool first_pass = round == tally.best_round_s.size();
  std::size_t done = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    UnitResult& r = results[i];
    tally.simulations += 1;
    tally.attempted += r.attempted;
    tally.failed += r.failed;
    done += r.attempted - r.failed;
    if (!r.failure.empty()) {
      tally.failures.push_back(r.label + ": " + r.failure);
    }
    keep_min(tally.best_setup_s, first_sim + i, r.setup_s);
    if (first_pass) tally.units.push_back(std::move(r));
  }
  keep_min(tally.best_round_s, round, wall);
  if (first_pass) tally.decided.push_back(done);
  tally.wall_s += wall;
}

std::vector<std::vector<Unit>> batch_rounds(const Workload& workload,
                                            std::uint64_t seed) {
  std::vector<std::vector<Unit>> rounds;
  for (std::size_t r = 0; r < workload.batch_rounds; ++r) {
    rounds.push_back(workload.round(seed, r));
  }
  return rounds;
}

/// The closed loop: passes over the batch while the last pass's wall time
/// says the next one ends within `seconds`, and at least two, so that every
/// round has a repeat to fall back on.
Tally run_loop(const Workload& workload, std::uint64_t seed, double seconds) {
  constexpr std::size_t kMinPasses = 2;
  const std::vector<std::vector<Unit>> rounds = batch_rounds(workload, seed);
  Tally tally;
  double last_pass_s = 0.0;
  while (tally.passes < kMinPasses ||
         tally.wall_s + last_pass_s <= seconds) {
    const double before = tally.wall_s;
    std::size_t sim = 0;
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      run_round(workload, rounds[r], /*traced=*/false, r, sim, tally);
      sim += rounds[r].size();
    }
    tally.passes += 1;
    last_pass_s = tally.wall_s - before;
  }
  return tally;
}

/// One pass over the batch, plain and traced. The order alternates from
/// round to round so that neither mode always runs second, on a heap the
/// other has already churned.
std::pair<Tally, Tally> run_batch_twice(const Workload& workload,
                                        std::uint64_t seed) {
  const std::vector<std::vector<Unit>> rounds = batch_rounds(workload, seed);
  Tally plain, traced;
  std::size_t sim = 0;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const bool traced_first = r % 2 == 1;
    run_round(workload, rounds[r], traced_first, r, sim,
              traced_first ? traced : plain);
    run_round(workload, rounds[r], !traced_first, r, sim,
              traced_first ? plain : traced);
    sim += rounds[r].size();
  }
  return {std::move(plain), std::move(traced)};
}

/// Nearest-rank percentile, q in (0, 1]; T{} for an empty sample.
template <typename T>
T percentile(std::vector<T> values, double q) {
  if (values.empty()) return T{};
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<Metric> end_to_end(const Tally& tally) {
  std::vector<SimTime> ticks;
  std::size_t instances = 0;
  double messages = 0.0, bytes = 0.0;
  for (const UnitResult& u : tally.units) {
    ticks.insert(ticks.end(), u.decide_samples.begin(), u.decide_samples.end());
    instances += u.attempted;
    messages += static_cast<double>(u.witness.metrics.messages_sent);
    bytes += static_cast<double>(u.witness.metrics.bytes_sent);
  }
  std::size_t decided = 0;
  for (std::size_t d : tally.decided) decided += d;
  double best_s = 0.0;
  for (double s : tally.best_round_s) best_s += s;
  const auto inst = static_cast<double>(instances);
  return {
      {"instances_per_s", ratio(static_cast<double>(decided), best_s), "1/s"},
      {"setup_s", percentile(tally.best_setup_s, 0.5), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
      {"decide_ticks_p50", static_cast<double>(percentile(ticks, 0.5)),
       "ticks"},
      {"decide_ticks_p95", static_cast<double>(percentile(ticks, 0.95)),
       "ticks"},
      {"msgs_per_instance", ratio(messages, inst), "count"},
      {"kb_per_instance", ratio(bytes / 1024.0, inst), "KiB"},
  };
}

std::uint64_t counter(const sim::SimMetrics& m, sim::ProtoCounter c) {
  return m.protocol_counter(c);
}

std::vector<Metric> per_layer(const Workload& workload, const Tally& plain,
                              const Tally& traced) {
  LayerTotals layers;
  sim::SimMetrics total;
  sim::MessagePool::Stats pool;
  std::uint64_t heap = 0, flow = 0, flow_base = 0, domtree = 0;
  std::uint64_t view_changes = 0;
  std::size_t sd_observed = 0, sd_exact = 0;
  double run_s = 0.0, outside_setup_s = 0.0, cells_s = 0.0;
  std::vector<SimTime> sd_ticks;
  std::vector<double> cell_walls;
  for (const UnitResult& u : traced.units) {
    const sim::SimMetrics& m = u.witness.metrics;
    layers.add(u.layers);
    total.messages_sent += m.messages_sent;
    total.events_processed += m.events_processed;
    total.timer_fires += m.timer_fires;
    for (std::size_t c = 0; c < sim::kProtoCounterCount; ++c) {
      total.protocol_counters[c] += m.protocol_counters[c];
    }
    const auto by_type = m.messages_by_type();
    if (const auto it = by_type.find("pbft.viewchange"); it != by_type.end()) {
      view_changes += it->second;
    }
    pool.pool_allocs += u.pool.pool_allocs;
    pool.fallback_allocs += u.pool.fallback_allocs;
    pool.slabs_created += u.pool.slabs_created;
    heap += u.run_allocs;
    flow += u.flow_evals;
    flow_base += u.flow_evals_baseline;
    domtree += u.domtree_passes;
    sd_observed += u.sd_observed;
    sd_exact += u.sd_exact;
    sd_ticks.insert(sd_ticks.end(), u.sd_ticks.begin(), u.sd_ticks.end());
    run_s += u.run_s;
    outside_setup_s += u.wall_s - u.setup_s;
    cells_s += u.wall_s;
    cell_walls.push_back(u.wall_s);
  }
  using sim::ProtoCounter;
  auto self_s = [&](Layer l) {
    return layers.self_s[static_cast<std::size_t>(l)];
  };
  auto msgs = [&](Layer l) {
    return static_cast<double>(layers.messages[static_cast<std::size_t>(l)]);
  };
  auto allocs = [&](Layer l) {
    return static_cast<double>(layers.allocs[static_cast<std::size_t>(l)]);
  };
  auto count = [&](ProtoCounter c) {
    return static_cast<double>(counter(total, c));
  };
  std::uint64_t span_allocs = 0;
  for (std::uint64_t a : layers.allocs) span_allocs += a;
  const double encodes = count(ProtoCounter::kWireEncodes);
  const double cached = count(ProtoCounter::kWireCachedSends);
  const double closure_runs = count(ProtoCounter::kQuorumClosureRuns);
  const double closure_hits = count(ProtoCounter::kQuorumClosureCacheHits);
  const double qset_evals = count(ProtoCounter::kQsetEvals);

  std::vector<Metric> out = {
      {"sim.events", static_cast<double>(total.events_processed), "count"},
      {"sim.timer_fires", static_cast<double>(total.timer_fires), "count"},
      {"sim.loop_s", run_s - layers.top_level_s, "s"},
      {"net.verdicts", static_cast<double>(layers.verdicts), "count"},
      {"net.verdict_s", self_s(Layer::kNet), "s"},
      {"net.dropped", static_cast<double>(layers.dropped), "count"},
      {"net.duplicated", static_cast<double>(layers.duplicated), "count"},
      {"wire.encodes", encodes, "count"},
      {"wire.cached_sends", cached, "count"},
      {"wire.sends_per_encode", ratio(encodes + cached, encodes), "ratio"},
      {"heap.allocs", static_cast<double>(heap), "count"},
      {"heap.allocs_per_msg",
       ratio(static_cast<double>(heap),
             static_cast<double>(total.messages_sent)),
       "ratio"},
      {"pool.allocs", static_cast<double>(pool.pool_allocs), "count"},
      {"pool.fallback_allocs", static_cast<double>(pool.fallback_allocs),
       "count"},
      {"pool.slabs_created", static_cast<double>(pool.slabs_created), "count"},
      {"sim.allocs", static_cast<double>(heap - span_allocs), "count"},
  };
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const auto layer = static_cast<Layer>(l);
    if (layer == Layer::kOther) continue;  // reconciliation keeps it at 0
    out.push_back({std::string(layer_name(layer)) + ".allocs", allocs(layer),
                   "count"});
  }
  const std::vector<Metric> rest = {
      {"cup.msgs", msgs(Layer::kCup), "count"},
      {"cup.handle_s", self_s(Layer::kCup), "s"},
      {"cup.payload_builds", count(ProtoCounter::kDiscoveryPayloadBuilds),
       "count"},
      {"cup.payload_shared", count(ProtoCounter::kDiscoveryPayloadShared),
       "count"},
      {"graph.flow_evals", static_cast<double>(flow), "count"},
      {"graph.domtree_passes", static_cast<double>(domtree), "count"},
      {"cup.recheck_savings",
       ratio(static_cast<double>(flow_base),
             static_cast<double>(flow + domtree)),
       "ratio"},
      {"sd.msgs", msgs(Layer::kSinkDetector), "count"},
      {"sd.handle_s", self_s(Layer::kSinkDetector), "s"},
      {"sd.return_ticks_p50", static_cast<double>(percentile(sd_ticks, 0.5)),
       "ticks"},
      {"sd.exact_ratio",
       ratio(static_cast<double>(sd_exact), static_cast<double>(sd_observed)),
       "ratio"},
      {"scp.nominate.msgs", msgs(Layer::kScpNominate), "count"},
      {"scp.nominate.handle_s", self_s(Layer::kScpNominate), "s"},
      {"scp.ballot.msgs", msgs(Layer::kScpBallot), "count"},
      {"scp.ballot.handle_s", self_s(Layer::kScpBallot), "s"},
      {"scp.timer_s", self_s(Layer::kScpTimer), "s"},
      {"fbqs.closure_runs", closure_runs, "count"},
      {"fbqs.closure_hit_ratio",
       ratio(closure_hits, closure_runs + closure_hits), "ratio"},
      {"fbqs.qset_evals", qset_evals, "count"},
      {"fbqs.rescan_savings",
       ratio(count(ProtoCounter::kQsetEvalsBaseline), qset_evals), "ratio"},
      {"fbqs.support_updates", count(ProtoCounter::kSupportUpdates), "count"},
      {"fbqs.support_rebuilds", count(ProtoCounter::kSupportRebuilds),
       "count"},
      {"ledger.slot_wraps", count(ProtoCounter::kSlotWraps), "count"},
      {"ledger.wraps_shared", count(ProtoCounter::kSlotWrapsShared), "count"},
      {"pbft.msgs", msgs(Layer::kPbft), "count"},
      {"pbft.handle_s", self_s(Layer::kPbft), "s"},
      {"pbft.view_changes", static_cast<double>(view_changes), "count"},
      {"dissem.msgs", msgs(Layer::kDissemination), "count"},
      {"dissem.handle_s", self_s(Layer::kDissemination), "s"},
      {"matrix.cell_s_p50", percentile(cell_walls, 0.5), "s"},
      {"matrix.busy_ratio",
       ratio(cells_s, static_cast<double>(workload.threads) * traced.wall_s),
       "ratio"},
      {"trace.overhead", traced.wall_s / plain.wall_s - 1.0, "ratio"},
      {"trace.unattributed_s", outside_setup_s - layers.top_level_s, "s"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

/// Checks a traced unit's per-layer counts against the simulation's own
/// totals; returns the first mismatch, or an empty string.
std::string reconcile(const UnitResult& u) {
  const sim::SimMetrics& m = u.witness.metrics;
  const LayerTotals& l = u.layers;
  std::uint64_t classified = 0;
  for (std::uint64_t c : l.messages) classified += c;
  if (l.messages[static_cast<std::size_t>(Layer::kOther)] != 0 ||
      l.unclassified_timers != 0) {
    return "a message type or timer has no layer";
  }
  if (classified != l.message_upcalls) {
    return "layer msgs != delivered messages";
  }
  if (l.message_upcalls >
      m.messages_sent - m.messages_dropped + m.messages_duplicated) {
    return "more deliveries than scheduled copies";
  }
  if (l.verdicts != m.messages_sent) return "net.verdicts != messages_sent";
  if (l.dropped != m.messages_dropped ||
      l.duplicated != m.messages_duplicated) {
    return "net.dropped/duplicated != SimMetrics";
  }
  if (counter(m, sim::ProtoCounter::kWireEncodes) +
          counter(m, sim::ProtoCounter::kWireCachedSends) !=
      m.messages_sent) {
    return "wire.encodes + wire.cached_sends != messages_sent";
  }
  if (l.timer_upcalls != m.timer_fires) return "timer upcalls != timer_fires";
  return "";
}

struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;

  void add_tally(const Tally& tally) {
    attempted += tally.attempted;
    failed += tally.failed;
    errors.insert(errors.end(), tally.failures.begin(), tally.failures.end());
  }
  /// The traced batch must reproduce the plain one and reconcile.
  void add_identity(const Tally& plain, const Tally& traced) {
    for (std::size_t i = 0; i < traced.units.size(); ++i) {
      const UnitResult& u = traced.units[i];
      if (!(u.witness == plain.units[i].witness)) {
        errors.push_back(u.label + ": traced run differs from the plain run");
      }
      const std::string mismatch = reconcile(u);
      if (!mismatch.empty()) errors.push_back(u.label + ": " + mismatch);
    }
  }
  bool ok() const { return failed == 0 && errors.empty(); }
};

std::string json_number(double v) {
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 9e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-26s %18s %s\n", m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str());
  }
  for (const std::string& e : checks.errors) {
    std::printf("FAILED %s\n", e.c_str());
  }
  std::string json = "{\"correct\": ";
  json += checks.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted);
  json += ", \"failed\": " + std::to_string(checks.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Where the traced run's wall time went, layer by layer.
void print_layer_table(const Tally& traced) {
  LayerTotals layers;
  double wall = 0.0, run = 0.0;
  for (const UnitResult& u : traced.units) {
    layers.add(u.layers);
    wall += u.wall_s;
    run += u.run_s;
  }
  std::printf("  %-14s %12s %10s %7s %12s\n", "layer", "msgs", "self_s",
              "share", "allocs");
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const auto layer = static_cast<Layer>(l);
    if (layer == Layer::kOther) continue;
    std::printf("  %-14s %12llu %10.4f %6.1f%% %12llu\n", layer_name(layer),
                static_cast<unsigned long long>(layer == Layer::kNet
                                                    ? layers.verdicts
                                                    : layers.messages[l]),
                layers.self_s[l], 100.0 * ratio(layers.self_s[l], wall),
                static_cast<unsigned long long>(layers.allocs[l]));
  }
  const double loop = run - layers.top_level_s;
  std::printf("  %-14s %12s %10.4f %6.1f%%\n", "sim loop", "", loop,
              100.0 * ratio(loop, wall));
  std::printf("  %-14s %12s %10.4f %6.1f%%\n", "setup+checks", "",
              wall - run, 100.0 * ratio(wall - run, wall));
}

int run_workload(const Workload& workload, std::uint64_t seed, double seconds,
                 bool trace) {
  std::printf("scup-bench %s seed=%llu threads=%zu%s\n", workload.name.c_str(),
              static_cast<unsigned long long>(seed), workload.threads,
              trace ? " trace" : "");
  Checks checks;
  if (!trace) {
    const Tally tally = run_loop(workload, seed, seconds);
    checks.add_tally(tally);
    std::printf("  %zu simulations in %zu passes, %.3f s\n", tally.simulations,
                tally.passes, tally.wall_s);
    print_result(checks, end_to_end(tally));
    return checks.ok() ? 0 : 1;
  }
  const auto [plain, traced] = run_batch_twice(workload, seed);
  checks.add_tally(plain);
  checks.add_tally(traced);
  checks.add_identity(plain, traced);
  std::printf("  batch of %zu simulations: plain %.3f s, traced %.3f s\n",
              traced.units.size(), plain.wall_s, traced.wall_s);
  print_layer_table(traced);
  print_result(checks, per_layer(workload, plain, traced));
  return checks.ok() ? 0 : 1;
}

/// Every workload at toy size, plain and traced, with every check plus a
/// comparison of each one-shot cell against core::run_scenario.
int run_smoke() {
  const Clock::time_point start = Clock::now();
  bool ok = true;
  for (const Workload& workload : smoke_workloads()) {
    const auto [plain, traced] = run_batch_twice(workload, 1);
    Checks checks;
    checks.add_tally(plain);
    checks.add_tally(traced);
    checks.add_identity(plain, traced);
    std::size_t unit_index = 0;
    for (const std::vector<Unit>& round : batch_rounds(workload, 1)) {
      for (const Unit& unit : round) {
        if (!matches_run_scenario(unit, plain.units[unit_index++])) {
          checks.errors.push_back(unit.label +
                                  ": differs from core::run_scenario");
        }
      }
    }
    const std::vector<Metric> e2e = end_to_end(plain);
    const std::vector<Metric> layers = per_layer(workload, plain, traced);
    std::printf("smoke %-12s %2zu simulations, %zu instances, %zu + %zu "
                "metrics: %s\n",
                workload.name.c_str(), traced.units.size(), checks.attempted,
                e2e.size(), layers.size(), checks.ok() ? "ok" : "FAILED");
    for (const std::string& e : checks.errors) {
      std::printf("  FAILED %s\n", e.c_str());
    }
    ok = ok && checks.ok();
  }
  std::printf("smoke %s in %.2f s\n", ok ? "passed" : "FAILED",
              seconds_since(start));
  return ok ? 0 : 1;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "scup-bench: %s\n"
               "usage: scup-bench --workload=<name> --seed=<n> "
               "[--seconds=<t>] [--trace]\n"
               "       scup-bench --smoke\n"
               "workloads:",
               why);
  for (const Workload& w : workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  std::string name;
  std::string seed_text;
  double seconds = 12.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (arg == "--smoke") return run_smoke();
    if (arg == "--trace") {
      trace = true;
    } else if (key == "--workload") {
      name = value;
    } else if (key == "--seed") {
      seed_text = value;
    } else if (key == "--seconds") {
      char* end = nullptr;
      seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(seconds >= 0.0)) {
        return usage("--seconds needs a non-negative number");
      }
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  std::uint64_t seed = 0;
  const char* seed_end = seed_text.data() + seed_text.size();
  const auto [parsed_end, error] =
      std::from_chars(seed_text.data(), seed_end, seed);
  if (seed_text.empty() || error != std::errc() || parsed_end != seed_end) {
    return usage("--seed needs a whole number that fits 64 bits");
  }
  for (const Workload& w : workloads()) {
    if (w.name == name) return run_workload(w, seed, seconds, trace);
  }
  return usage(("unknown workload '" + name + "'").c_str());
}

}  // namespace
}  // namespace scup::perf

int main(int argc, char** argv) {
  try {
    return scup::perf::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scup-bench: %s\n", e.what());
    return 2;
  }
}
