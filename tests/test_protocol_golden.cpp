// Cross-commit identity pins: absolute SimMetrics totals (loss and
// duplication included), every ProtoCounter, the end tick, the Notary
// fingerprint and each process's decision tick for four fixed-seed runs —
//  - a one-shot large_scale_scenario cell at n=22 (n distinct proposals,
//    nomination-heavy),
//  - a 6-slot LedgerNode chain at n=16 with E13's 16 contending proposals
//    per slot, plus its chain digest,
//  - a churn_partition_scenario cell whose placed process is an SCP
//    equivocator,
//  - a BFT-CUP churn_partition_scenario cell with pre-GST loss and
//    duplication and a scheduled crash, the one pin that covers BFT-CUP,
//    dropped and duplicated copies, crash events and signing.
// The determinism suites compare two runs of the same build; these compare
// a run against numbers recorded from an earlier build, so a refactor that
// claims to leave SCP's behaviour alone is held to it: the same messages,
// the same federated checks (closure runs plus closure cache hits) and the
// same decision ticks. How the engine answers those checks (the split
// between runs and hits, and qset_evals) is recorded too, so a change to
// it shows here and must be declared. A legitimate behaviour change must
// re-record the pins and say so; the failure message prints the observed
// values as a ready-to-paste initializer.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/adversaries.hpp"
#include "core/experiment.hpp"
#include "core/ledger_node.hpp"
#include "sim/simulation.hpp"

namespace scup::core {
namespace {

struct Pin {
  std::size_t messages_sent = 0;
  std::size_t bytes_sent = 0;
  std::size_t events_processed = 0;
  std::size_t timer_fires = 0;
  std::size_t messages_dropped = 0;
  std::size_t messages_duplicated = 0;
  SimTime end_time = 0;
  std::uint64_t notary_fingerprint = 0;
  std::array<std::uint64_t, sim::kProtoCounterCount> counters{};
  /// One-shot: each process's decision tick (kTimeInfinity if none).
  /// Ledger: each replica's close tick of its last slot (0 if faulty).
  std::vector<SimTime> decide_ticks;
  std::uint64_t chain_digest = 0;  // ledger only
};

Pin observe(const sim::SimMetrics& m, SimTime end_time,
            std::uint64_t fingerprint, std::vector<SimTime> ticks,
            std::uint64_t digest = 0) {
  Pin p;
  p.messages_sent = m.messages_sent;
  p.bytes_sent = m.bytes_sent;
  p.events_processed = m.events_processed;
  p.timer_fires = m.timer_fires;
  p.messages_dropped = m.messages_dropped;
  p.messages_duplicated = m.messages_duplicated;
  p.end_time = end_time;
  p.notary_fingerprint = fingerprint;
  p.counters = m.protocol_counters;
  p.decide_ticks = std::move(ticks);
  p.chain_digest = digest;
  return p;
}

std::string tick_literal(SimTime t) {
  return t == kTimeInfinity ? "kInf" : std::to_string(t);
}

/// The pin as a C++ initializer, for re-recording.
std::string literal(const Pin& p) {
  std::ostringstream out;
  char fingerprint[19];
  std::snprintf(fingerprint, sizeof fingerprint, "0x%016llx",
                static_cast<unsigned long long>(p.notary_fingerprint));
  out << "{" << p.messages_sent << ", " << p.bytes_sent << ", "
      << p.events_processed << ", " << p.timer_fires << ",\n "
      << p.messages_dropped << ", " << p.messages_duplicated << ", "
      << p.end_time << ", " << fingerprint << "ULL,\n {{";
  for (std::size_t i = 0; i < p.counters.size(); ++i) {
    out << (i == 0 ? "" : ", ") << p.counters[i];
  }
  out << "}},\n {";
  for (std::size_t i = 0; i < p.decide_ticks.size(); ++i) {
    out << (i == 0 ? "" : ", ") << tick_literal(p.decide_ticks[i]);
  }
  out << "},\n " << p.chain_digest << "ULL}";
  return out.str();
}

/// Compares the initializer texts: a failure shows a line diff, and the
/// observed pin ready to paste.
void expect_pinned(const Pin& actual, const Pin& expected) {
  const std::string observed = literal(actual);
  EXPECT_EQ(observed, literal(expected)) << "observed:\n" << observed;
}

constexpr SimTime kInf = kTimeInfinity;

Pin one_shot(const ScenarioConfig& config) {
  const ScenarioReport r = run_scenario(config);
  EXPECT_TRUE(r.all_decided);
  EXPECT_TRUE(r.agreement);
  EXPECT_TRUE(r.validity);
  return observe(r.metrics, r.end_time, r.notary_fingerprint,
                 r.decision_times);
}

/// E13's chain shape (bench_ledger_throughput): silent placed process,
/// 16 contending proposals per slot.
Pin ledger_chain(std::size_t n, std::size_t slots, std::uint64_t seed) {
  LargeScaleParams params;
  params.n = n;
  params.f = 1;
  params.seed = seed;
  const ScenarioConfig cfg = large_scale_scenario(params);
  const NodeSet correct = cfg.faulty.complement();
  sim::Simulation sim(n, cfg.net);
  std::vector<LedgerNode*> nodes(n, nullptr);
  for (ProcessId i = 0; i < n; ++i) {
    if (cfg.faulty.contains(i)) {
      sim.emplace_process<SilentNode>(i);
      continue;
    }
    nodes[i] = &sim.emplace_process<LedgerNode>(i, cfg.graph.pd_of(i), 1,
                                                slots);
    nodes[i]->set_value_provider([i, seed](std::uint64_t slot) {
      return hash_mix(0xE13, seed ^ slot, i % 16) | 1;
    });
  }
  sim.start();
  const bool done = sim.run_until(
      [&] {
        for (ProcessId i : correct) {
          if (nodes[i]->decided_slots() < slots) return false;
        }
        return true;
      },
      cfg.deadline * 4, /*stride=*/64);
  EXPECT_TRUE(done);
  const std::uint64_t digest = nodes[correct.min_member()]->chain_digest();
  std::vector<SimTime> closes(n, 0);
  for (ProcessId i : correct) {
    EXPECT_EQ(nodes[i]->chain_digest(), digest) << "replica " << i;
    closes[i] = nodes[i]->last_close_time();
  }
  return observe(sim.metrics(), sim.now(), sim.notary().fingerprint(),
                 std::move(closes), digest);
}

TEST(ProtocolGoldenTest, StellarSdOneShotN22) {
  LargeScaleParams params;
  params.n = 22;
  params.f = 1;
  params.seed = 7;
  params.protocol = ProtocolKind::kStellarSd;
  const Pin expected = {19184, 4946533, 18779, 0,
      0, 0, 56, 0x0000000010742a15ULL,
      {{4793, 44062, 9750, 218032, 6252, 1013, 0, 0, 197, 494, 1510, 17674}},
      {56, 56, 55, 54, 52, 52, 56, 55, 54, 54, 55,
       55, 55, 54, 54, 55, kInf, 55, 54, 54, 54, 53},
      0ULL};
  expect_pinned(one_shot(large_scale_scenario(params)), expected);
}

TEST(ProtocolGoldenTest, LedgerChainN16SixSlots) {
  const Pin expected = {38967, 7958807, 38912, 90,
      0, 0, 789, 0x0000000010742a15ULL,
      {{9855, 81964, 21655, 347150, 18431, 3592, 3236, 34805, 117, 236, 3525,
        35442}},
      {783, 785, 783, 784, 785, 786, 785, 785, 787, 0, 784, 784, 784, 784, 788,
       783},
      11246285136334237024ULL};
  expect_pinned(ledger_chain(16, 6, /*seed=*/3), expected);
}

TEST(ProtocolGoldenTest, ChurnPartitionWithScpEquivocator) {
  ChurnPartitionParams params;
  params.n = 20;
  params.f = 1;
  params.seed = 5;
  params.protocol = ProtocolKind::kStellarSd;
  ScenarioConfig config = churn_partition_scenario(params);
  config.adversary = AdversaryKind::kScpEquivocator;
  const Pin expected = {18961, 4508903, 18581, 19,
      0, 0, 2303, 0x0000000010742a15ULL,
      {{4506, 37923, 10237, 191144, 6210, 1043, 0, 0, 199, 478, 1681, 17280}},
      {2299, 2301, 2301, 2300, 2301, 2303, 2301, 2298, 2301, 2301,
       2302, 2300, 2301, 2303, 2299, 2301, 2300, kInf, 2300, 2300},
      0ULL};
  expect_pinned(one_shot(config), expected);
}

TEST(ProtocolGoldenTest, BftCupChurnLossDuplicationCrash) {
  ChurnPartitionParams params;
  params.seed = 5;
  params.protocol = ProtocolKind::kBftCup;
  params.with_partition = true;
  params.pre_gst_drop = 0.2;
  params.with_crash = true;
  ScenarioConfig config = churn_partition_scenario(params);
  config.net.pre_gst_duplicate = 0.2;
  const Pin expected = {3461, 206842, 2524, 141,
      391, 382, 2036, 0xce9fb8c526160253ULL,
      {{0, 0, 0, 0, 0, 0, 0, 0, 219, 1162, 820, 2641}},
      {2033, 2032, 2033, 2031, 2032, 2034, 2031, 2033, 2035, 2035,
       2034, 2033, 2035, 2034, 2034, 2035, 2036, kInf, 2035, 2034},
      0ULL};
  expect_pinned(one_shot(config), expected);
}

}  // namespace
}  // namespace scup::core
