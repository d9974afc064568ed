// Determinism under forced rehash: the E12/E13 identity guarantees
// (bit-identical chains, sign logs and quorum-engine counters for a given
// seed) must not depend on hash-table iteration order. scup-lint's
// det-unordered-iter rule enforces that statically; this suite enforces it
// dynamically by rehashing every unordered table (ScpNode support indexes,
// QuorumEngine tables) between simulation events — scrambling bucket
// orders mid-run — and requiring byte-identical outcomes versus an
// undisturbed run with the same seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/adversaries.hpp"
#include "core/ledger_node.hpp"
#include "graph/generators.hpp"
#include "sim/simulation.hpp"

namespace scup::core {
namespace {

struct RunResult {
  std::vector<std::uint64_t> chain_digests;        // per correct node
  std::vector<std::uint64_t> quorum_evals;         // per correct node
  std::vector<std::pair<ProcessId, std::uint64_t>> sign_log;
  std::vector<Value> decisions;                    // slot-major, first node
  bool completed = false;
};

/// Runs `slots` ledger slots on `g` with the given seed. When `rehash` is
/// true, every predicate poll (between event batches) forces a rehash with
/// a growing bucket count, so iteration orders keep changing all run long.
RunResult run_ledger(const graph::Digraph& g, const NodeSet& faulty,
                     std::size_t f, std::size_t slots, std::uint64_t seed,
                     bool rehash) {
  sim::NetworkConfig net;
  net.seed = seed;
  net.min_delay = 1;
  net.max_delay = 10;
  sim::Simulation sim(g.node_count(), net);
  std::vector<LedgerNode*> nodes(g.node_count(), nullptr);
  for (ProcessId i = 0; i < g.node_count(); ++i) {
    if (faulty.contains(i)) {
      sim.emplace_process<SilentNode>(i);
      continue;
    }
    nodes[i] = &sim.emplace_process<LedgerNode>(i, g.pd_of(i), f, slots);
  }
  const NodeSet correct = faulty.complement();

  std::size_t polls = 0;
  sim.start();
  RunResult r;
  // Polled every 256 events; a strictly growing bucket floor means every
  // poll really rehashes (libstdc++ never shrinks below the prior floor),
  // so iteration orders are scrambled a few hundred times per run without
  // the rehash work itself going quadratic.
  r.completed = sim.run_until(
      [&] {
        if (rehash) {
          const std::size_t buckets = 8 + 7 * ++polls;
          for (ProcessId i : correct) {
            nodes[i]->ledger().debug_rehash(buckets);
          }
        }
        for (ProcessId i : correct) {
          if (nodes[i]->decided_slots() < slots) return false;
        }
        return true;
      },
      3'000'000, /*stride=*/256);

  for (ProcessId i : correct) {
    r.chain_digests.push_back(nodes[i]->chain_digest());
    r.quorum_evals.push_back(nodes[i]->quorum_stats().qset_evals);
  }
  const ProcessId first = correct.min_member();
  for (std::uint64_t s = 1; s <= slots; ++s) {
    r.decisions.push_back(nodes[first]->slot_decision(s));
  }
  r.sign_log = sim.notary().log();
  return r;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_EQ(a.chain_digests, b.chain_digests);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.quorum_evals, b.quorum_evals);
  ASSERT_EQ(a.sign_log.size(), b.sign_log.size());
  EXPECT_EQ(a.sign_log, b.sign_log);
}

TEST(DeterminismRehashTest, Fig1ChainIdenticalUnderForcedRehash) {
  const auto g = graph::fig1_graph();
  const auto base = run_ledger(g, graph::fig1_faulty(), 1, 4, /*seed=*/11,
                               /*rehash=*/false);
  const auto scrambled = run_ledger(g, graph::fig1_faulty(), 1, 4,
                                    /*seed=*/11, /*rehash=*/true);
  expect_identical(base, scrambled);
}

TEST(DeterminismRehashTest, Fig2ChainIdenticalUnderForcedRehash) {
  const auto g = graph::fig2_graph();
  const NodeSet faulty(7, {6});
  const auto base =
      run_ledger(g, faulty, 1, 3, /*seed=*/23, /*rehash=*/false);
  const auto scrambled =
      run_ledger(g, faulty, 1, 3, /*seed=*/23, /*rehash=*/true);
  expect_identical(base, scrambled);
}

TEST(DeterminismRehashTest, RehashRunsAreSelfConsistentAcrossRepeats) {
  // Two scrambled runs with the same seed also agree with each other (the
  // rehash schedule is itself deterministic).
  const auto g = graph::fig1_graph();
  const auto a = run_ledger(g, graph::fig1_faulty(), 1, 3, /*seed=*/5,
                            /*rehash=*/true);
  const auto b = run_ledger(g, graph::fig1_faulty(), 1, 3, /*seed=*/5,
                            /*rehash=*/true);
  expect_identical(a, b);
}

}  // namespace
}  // namespace scup::core
