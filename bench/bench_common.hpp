// Shared helpers for the experiment benches. Each bench binary regenerates
// one experiment from DESIGN.md's index and doubles as a performance
// benchmark of the code paths involved. The ->Report rows (via counters)
// are the "tables"; EXPERIMENTS.md records the reference output.
//
// Every bench uses SCUP_BENCH_MAIN("E<k>") instead of BENCHMARK_MAIN():
// alongside the normal console output it writes a canonical machine-
// readable summary, BENCH_E<k>.json, with one entry per benchmark row
// (name, iterations, real/cpu time, every user counter). CI uploads these
// files as artifacts so perf history survives log rotation. The output
// directory defaults to the working directory and can be redirected with
// SCUP_BENCH_OUT_DIR.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "fbqs/quorum.hpp"
#include "graph/generators.hpp"
#include "graph/kosr.hpp"
#include "graph/scc.hpp"
#include "sinkdetector/slice_builder.hpp"

namespace scup::bench {

/// Builds the FBQS of Algorithm 2 for a given sink (used by the analytic
/// experiments E1-E4/E9).
inline fbqs::FbqsSystem algorithm2_system(std::size_t n, const NodeSet& sink,
                                          std::size_t f) {
  fbqs::FbqsSystem sys(n);
  for (ProcessId i = 0; i < n; ++i) {
    sinkdetector::GetSinkResult r;
    r.is_sink_member = sink.contains(i);
    r.sink = sink;
    sys.set_slices(i, sinkdetector::build_slices(r, f));
  }
  return sys;
}

/// Builds the Theorem-2 "local" FBQS from PDs alone.
inline fbqs::FbqsSystem local_system(const graph::Digraph& g, std::size_t f) {
  fbqs::FbqsSystem sys(g.node_count());
  for (ProcessId i = 0; i < g.node_count(); ++i) {
    const NodeSet pd = g.pd_of(i);
    if (pd.count() > f) {
      sys.set_slices(i, sinkdetector::local_slices(pd, f));
    }
  }
  return sys;
}

/// Standard scenario configuration for the simulation experiments (E5-E7).
inline core::ScenarioConfig sim_scenario(graph::Digraph g, std::size_t f,
                                         NodeSet faulty, std::uint64_t seed,
                                         core::ProtocolKind protocol) {
  core::ScenarioConfig cfg;
  cfg.graph = std::move(g);
  cfg.f = f;
  cfg.faulty = std::move(faulty);
  cfg.protocol = protocol;
  cfg.net.seed = seed;
  cfg.net.min_delay = 1;
  cfg.net.max_delay = 10;
  cfg.deadline = 5'000'000;
  return cfg;
}

/// Console reporter that additionally collects every finished row for the
/// BENCH_E<k>.json summary (errors and aggregate rows are kept too, tagged
/// by type, so the artifact is a faithful transcript of the run).
class SummaryReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    bool error = false;
    bool aggregate = false;
    std::int64_t iterations = 0;
    double real_time = 0;  // per iteration, in time_unit
    double cpu_time = 0;
    std::string time_unit;
    std::vector<std::pair<std::string, double>> counters;
  };

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      Row row;
      row.name = run.benchmark_name();
      row.error = run.error_occurred;
      row.aggregate = run.run_type == Run::RT_Aggregate;
      row.iterations = static_cast<std::int64_t>(run.iterations);
      row.real_time = run.GetAdjustedRealTime();
      row.cpu_time = run.GetAdjustedCPUTime();
      row.time_unit = benchmark::GetTimeUnitString(run.time_unit);
      for (const auto& [name, counter] : run.counters) {
        row.counters.emplace_back(name, counter.value);
      }
      rows.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  std::vector<Row> rows;
};

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Writes BENCH_<id>.json into SCUP_BENCH_OUT_DIR (or the working
/// directory). Returns false — with a note on stderr — if the file cannot
/// be opened; the bench's exit status is unaffected, so a read-only CWD
/// never fails a perf run.
inline bool write_bench_summary(const std::string& id,
                                const std::vector<SummaryReporter::Row>& rows,
                                int argc, char** argv) {
  std::string dir;
  if (const char* env = std::getenv("SCUP_BENCH_OUT_DIR")) dir = env;
  if (!dir.empty() && dir.back() != '/') dir += '/';
  const std::string path = dir + "BENCH_" + id + ".json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench summary: cannot open %s\n", path.c_str());
    return false;
  }
  std::string argline;
  for (int i = 1; i < argc; ++i) {
    if (i > 1) argline += ' ';
    argline += argv[i];
  }
  std::fprintf(out, "{\n  \"experiment\": \"%s\",\n", json_escape(id).c_str());
  std::fprintf(out, "  \"args\": \"%s\",\n", json_escape(argline).c_str());
  // Host provenance: perf numbers are only comparable across runs on the
  // same substrate, so every artifact records what it ran on.
  const char* threads_env = std::getenv("SCUP_BENCH_THREADS");
#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif
  std::fprintf(out,
               "  \"host\": {\"cores\": %u, \"bench_threads\": \"%s\", "
               "\"build_type\": \"%s\"},\n",
               std::thread::hardware_concurrency(),
               json_escape(threads_env != nullptr ? threads_env : "").c_str(),
               build_type);
  std::fprintf(out, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"error\": %s, \"aggregate\": %s, "
                 "\"iterations\": %lld, \"real_time\": %.9g, "
                 "\"cpu_time\": %.9g, \"time_unit\": \"%s\", \"counters\": {",
                 json_escape(row.name).c_str(), row.error ? "true" : "false",
                 row.aggregate ? "true" : "false",
                 static_cast<long long>(row.iterations), row.real_time,
                 row.cpu_time, json_escape(row.time_unit).c_str());
    for (std::size_t c = 0; c < row.counters.size(); ++c) {
      std::fprintf(out, "%s\"%s\": %.9g", c > 0 ? ", " : "",
                   json_escape(row.counters[c].first).c_str(),
                   row.counters[c].second);
    }
    std::fprintf(out, "}}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  return true;
}

}  // namespace scup::bench

/// Drop-in replacement for BENCHMARK_MAIN(): runs the registered benchmarks
/// through a SummaryReporter and writes the canonical BENCH_<id>.json
/// artifact next to the console output. Exits 1 if any row reported an
/// error (SkipWithError), so a failing self-check fails the run.
#define SCUP_BENCH_MAIN(experiment_id)                                     \
  int main(int argc, char** argv) {                                        \
    benchmark::Initialize(&argc, argv);                                    \
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;      \
    scup::bench::SummaryReporter reporter;                                 \
    benchmark::RunSpecifiedBenchmarks(&reporter);                          \
    benchmark::Shutdown();                                                 \
    scup::bench::write_bench_summary(experiment_id, reporter.rows, argc,   \
                                     argv);                                \
    for (const auto& row : reporter.rows) {                                \
      if (row.error) return 1;                                             \
    }                                                                      \
    return 0;                                                              \
  }                                                                        \
  int main(int, char**)
