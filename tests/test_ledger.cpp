// Multi-slot ledger tests: chains of SCP instances (LedgerMultiplexer /
// LedgerNode) must agree slot by slot — the blockchain deployment of
// Corollary 2.
#include "core/ledger_node.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/adversaries.hpp"
#include "graph/generators.hpp"
#include "graph/kosr.hpp"
#include "graph/scc.hpp"
#include "sim/simulation.hpp"

namespace scup::core {
namespace {

struct LedgerHarness {
  LedgerHarness(const graph::Digraph& g, std::size_t f, const NodeSet& faulty,
                std::size_t slots, std::uint64_t seed = 1) {
    sim::NetworkConfig net;
    net.seed = seed;
    net.min_delay = 1;
    net.max_delay = 10;
    sim = std::make_unique<sim::Simulation>(g.node_count(), net);
    nodes.assign(g.node_count(), nullptr);
    for (ProcessId i = 0; i < g.node_count(); ++i) {
      if (faulty.contains(i)) {
        sim->emplace_process<SilentNode>(i);
        continue;
      }
      nodes[i] =
          &sim->emplace_process<LedgerNode>(i, g.pd_of(i), f, slots);
    }
    correct = faulty.complement();
    target = slots;
  }

  bool run(SimTime deadline = 3'000'000) {
    sim->start();
    return sim->run_until(
        [&] {
          for (ProcessId i : correct) {
            if (nodes[i]->decided_slots() < target) return false;
          }
          return true;
        },
        deadline);
  }

  std::unique_ptr<sim::Simulation> sim;
  std::vector<LedgerNode*> nodes;
  NodeSet correct;
  std::uint64_t target = 0;
};

TEST(LedgerTest, FiveSlotsOnFig1AllChainsIdentical) {
  LedgerHarness h(graph::fig1_graph(), 1, graph::fig1_faulty(), 5);
  ASSERT_TRUE(h.run());
  const ProcessId first = h.correct.min_member();
  const std::uint64_t digest = h.nodes[first]->chain_digest();
  EXPECT_NE(digest, 0u);
  for (ProcessId i : h.correct) {
    EXPECT_EQ(h.nodes[i]->decided_slots(), 5u) << "i=" << i;
    EXPECT_EQ(h.nodes[i]->chain_digest(), digest) << "i=" << i;
    for (std::uint64_t slot = 1; slot <= 5; ++slot) {
      EXPECT_EQ(h.nodes[i]->slot_decision(slot),
                h.nodes[first]->slot_decision(slot))
          << "i=" << i << " slot=" << slot;
    }
  }
}

TEST(LedgerTest, SlotsDecideDistinctProposals) {
  // Default value provider makes proposals slot-dependent; consecutive
  // slots should (overwhelmingly) decide different values — i.e. the
  // multiplexer really runs separate instances.
  LedgerHarness h(graph::fig2_graph(), 1, NodeSet(7, {6}), 4, /*seed=*/9);
  ASSERT_TRUE(h.run());
  const ProcessId first = h.correct.min_member();
  std::set<Value> decided;
  for (std::uint64_t slot = 1; slot <= 4; ++slot) {
    decided.insert(h.nodes[first]->slot_decision(slot));
  }
  EXPECT_GE(decided.size(), 3u);
}

TEST(LedgerTest, CustomValueProviderIsUsed) {
  const auto g = graph::fig2_graph();
  LedgerHarness h(g, 1, NodeSet(7), 3, /*seed=*/4);
  for (ProcessId i = 0; i < 7; ++i) {
    h.nodes[i]->set_value_provider(
        [](std::uint64_t slot) { return 7'000 + slot; });
  }
  ASSERT_TRUE(h.run());
  for (std::uint64_t slot = 1; slot <= 3; ++slot) {
    EXPECT_EQ(h.nodes[0]->slot_decision(slot), 7'000 + slot);
  }
}

TEST(LedgerTest, WithSinkByzantine) {
  // A silent Byzantine *sink* member on Fig. 2 must not block the chain.
  LedgerHarness h(graph::fig2_graph(), 1, NodeSet(7, {2}), 4, /*seed=*/12);
  ASSERT_TRUE(h.run());
  const ProcessId first = h.correct.min_member();
  for (ProcessId i : h.correct) {
    EXPECT_EQ(h.nodes[i]->chain_digest(), h.nodes[first]->chain_digest());
  }
}

TEST(LedgerTest, ChainDigestPrefixConsistency) {
  // The chain digest covers exactly slots 1..decided_slots() — two nodes at
  // the same height have the same digest even mid-run.
  LedgerHarness h(graph::fig1_graph(), 1, NodeSet(8), 3, /*seed=*/21);
  h.sim->start();
  h.sim->run_until(
      [&] {
        for (ProcessId i : h.correct) {
          if (h.nodes[i]->decided_slots() < 1) return false;
        }
        return true;
      },
      2'000'000);
  std::map<std::uint64_t, std::uint64_t> digest_at_height;
  for (ProcessId i : h.correct) {
    const auto height = h.nodes[i]->decided_slots();
    if (height == 0) continue;
    // Recompute prefix digest at height via slot decisions.
    std::uint64_t d = 0;
    for (std::uint64_t s = 1; s <= height; ++s) {
      d = hash_mix(d, s, h.nodes[i]->slot_decision(s));
    }
    auto [it, inserted] = digest_at_height.emplace(height, d);
    EXPECT_EQ(it->second, d) << "fork at height " << height;
  }
}

/// Host fake for driving a LedgerMultiplexer without a simulation.
class LedgerFakeHost : public sim::ProtocolHost {
 public:
  LedgerFakeHost(ProcessId self, std::size_t n) : self_(self), n_(n) {}
  ProcessId self() const override { return self_; }
  std::size_t universe() const override { return n_; }
  std::size_t fault_threshold() const override { return 1; }
  void host_send(ProcessId, sim::MessagePtr) override { ++sends; }
  void host_set_timer(int timer_id, SimTime) override {
    last_timer_id = timer_id;
  }
  std::uint64_t host_sign(std::uint64_t) const override { return 0; }
  bool host_verify(ProcessId, std::uint64_t, std::uint64_t) const override {
    return true;
  }

  std::size_t sends = 0;
  int last_timer_id = -1;

 private:
  ProcessId self_;
  std::size_t n_;
};

/// A NOMINATE of `v` from sender 1, wrapped for `slot`.
sim::MessagePtr slot_nominate(std::uint64_t slot, std::uint64_t seq, Value v) {
  const fbqs::QSet q =
      fbqs::QSet::threshold_of(2, std::vector<ProcessId>{0, 1, 2});
  scp::NominateStmt nom;
  nom.voted = {v};
  return sim::make_message<scp::SlotEnvelope>(
      slot, scp::Envelope(1, seq, q, scp::Statement{nom}));
}

TEST(LedgerMultiplexerTest, FarFutureSlotEnvelopesAllocateNothing) {
  // A Byzantine peer naming slot 10^18 — and a flood of distinct far-future
  // slots — must not allocate any per-slot state, under both the bounded
  // and the unbounded (target_slots == 0) configurations.
  for (const std::size_t target : {std::size_t{0}, std::size_t{5}}) {
    LedgerFakeHost host(0, 3);
    scp::LedgerMultiplexer mux(host, 3,
                               fbqs::QSet::threshold_of(
                                   2, std::vector<ProcessId>{0, 1, 2}),
                               target);
    mux.value_provider = [](std::uint64_t slot) { return 1000 + slot; };
    mux.add_peer(1);
    mux.add_peer(2);
    mux.start();
    const std::size_t before = mux.allocated_slots();

    const std::uint64_t huge = 1'000'000'000'000'000'000ull;  // 10^18
    EXPECT_TRUE(mux.handle(1, slot_nominate(huge, 1, 7)));
    EXPECT_EQ(mux.slot_node(huge), nullptr);

    // Flood: 10k distinct far-future slots from the same Byzantine peer.
    for (std::uint64_t i = 0; i < 10'000; ++i) {
      mux.handle(1, slot_nominate(scp::kSlotWindow + 2 + i, 2 + i, 7));
    }
    EXPECT_EQ(mux.allocated_slots(), before)
        << "target=" << target << ": flood must allocate nothing";
    if (target == 0) {
      // Unbounded config: only the window bound stood between the flood
      // and 10k ScpNode allocations.
      EXPECT_GE(mux.envelopes_dropped(), 10'001u);
    }

    // Near-future slots inside the window still buffer (fast peers must
    // not be cut off): the last admissible slot is next_to_start_+W-1.
    EXPECT_TRUE(mux.handle(1, slot_nominate(scp::kSlotWindow + 1, 50'000, 7)));
    if (target == 0) {
      EXPECT_NE(mux.slot_node(scp::kSlotWindow + 1), nullptr);
      EXPECT_EQ(mux.allocated_slots(), before + 1);
    } else {
      // Bounded config: slots past target_slots stay out of range.
      EXPECT_EQ(mux.slot_node(scp::kSlotWindow + 1), nullptr);
    }
  }
}

TEST(LedgerMultiplexerTest, StoredEnvelopeAliasesTheDeliveredSlotEnvelope) {
  // A slot stores a received envelope as an aliasing pointer into the
  // delivered SlotEnvelope, not a copy: the entry points at the wrapper's
  // inner envelope and keeps the wrapper alive after the caller lets go.
  LedgerFakeHost host(0, 3);
  const fbqs::QSet q =
      fbqs::QSet::threshold_of(2, std::vector<ProcessId>{0, 1, 2});
  scp::LedgerMultiplexer mux(host, 3, q, /*target_slots=*/0);
  mux.value_provider = [](std::uint64_t slot) { return 1000 + slot; };
  mux.add_peer(1);
  mux.add_peer(2);
  mux.start();

  scp::PrepareStmt prep;
  prep.b = scp::Ballot{2, 77};
  prep.p = scp::Ballot{1, 77};
  sim::MessagePtr msg = sim::make_message<scp::SlotEnvelope>(
      1, scp::Envelope(1, 9, q, scp::Statement{prep}));
  const auto* wrapped = dynamic_cast<const scp::SlotEnvelope*>(msg.get());
  ASSERT_NE(wrapped, nullptr);
  const scp::Envelope* inner = &wrapped->envelope;
  ASSERT_EQ(msg.use_count(), 1);
  EXPECT_TRUE(mux.handle(1, msg));
  msg.reset();  // the slot's stored pointer is now the only owner

  const scp::ScpNode* node = mux.slot_node(1);
  ASSERT_NE(node, nullptr);
  const auto& stored = node->ballot_envelopes().at(1);
  EXPECT_EQ(stored.get(), inner);
  EXPECT_EQ(stored->sender, 1u);
  EXPECT_EQ(stored->seq, 9u);
  const auto& read = std::get<scp::PrepareStmt>(stored->statement);
  EXPECT_EQ(read.b, (scp::Ballot{2, 77}));
  EXPECT_EQ(read.p, (scp::Ballot{1, 77}));
}

TEST(LedgerMultiplexerTest, OnTimerClaimsOnlyExistingSlots) {
  LedgerFakeHost host(0, 3);
  scp::LedgerMultiplexer mux(
      host, 3, fbqs::QSet::threshold_of(2, std::vector<ProcessId>{0, 1, 2}),
      3);
  mux.value_provider = [](std::uint64_t slot) { return 1000 + slot; };
  mux.start();

  // Below the ledger range: never claimed.
  EXPECT_FALSE(mux.on_timer(scp::kScpBallotTimerId));
  // In range and matching the started slot: claimed.
  EXPECT_TRUE(mux.on_timer(scp::ledger_timer_id(1)));
  // In range but no such slot exists: NOT swallowed (the historical bug),
  // so a composed protocol using high timer ids keeps working.
  EXPECT_FALSE(mux.on_timer(scp::ledger_timer_id(999)));
  EXPECT_FALSE(mux.on_timer(scp::kLedgerTimerBase + 500'000));
}

TEST(LedgerMultiplexerTest, TimerIdOverflowGuard) {
  EXPECT_EQ(scp::ledger_timer_id(0), scp::kLedgerTimerBase);
  EXPECT_EQ(scp::ledger_timer_id(7), scp::kLedgerTimerBase + 7);
  // The historical static_cast<int>(slot) wrapped silently; now it throws.
  EXPECT_THROW(scp::ledger_timer_id(1'000'000'000'000ull),
               std::overflow_error);
  EXPECT_THROW(
      scp::ledger_timer_id(static_cast<std::uint64_t>(
          std::numeric_limits<int>::max())),
      std::overflow_error);
  EXPECT_NO_THROW(scp::ledger_timer_id(
      static_cast<std::uint64_t>(std::numeric_limits<int>::max()) -
      scp::kLedgerTimerBase));
}

TEST(LedgerTest, IncrementalDigestMatchesFromScratchRecompute) {
  // The O(1) decided_slots / chain_digest must equal the historical O(k)
  // recompute at every height, and stay equal across replicas.
  LedgerHarness h(graph::fig1_graph(), 1, NodeSet(8), 4, /*seed=*/33);
  ASSERT_TRUE(h.run());
  for (ProcessId i : h.correct) {
    const auto height = h.nodes[i]->decided_slots();
    ASSERT_EQ(height, 4u);
    std::uint64_t from_scratch = 0;
    for (std::uint64_t s = 1; s <= height; ++s) {
      from_scratch = hash_mix(from_scratch, s, h.nodes[i]->slot_decision(s));
    }
    EXPECT_EQ(h.nodes[i]->chain_digest(), from_scratch) << "i=" << i;
    EXPECT_EQ(h.nodes[i]->chain_digest(), h.nodes[0]->chain_digest());
  }
}

TEST(LedgerTest, SharedEngineAggregatesAcrossSlotsAndReportsMetrics) {
  // All slots of a replica share one QuorumEngine: qsets are interned a
  // bounded number of times (not per slot), the closure cache pays off, and
  // the counters land in SimMetrics via the multiplexer's flush.
  LedgerHarness h(graph::fig1_graph(), 1, graph::fig1_faulty(), 5);
  ASSERT_TRUE(h.run());
  const ProcessId first = h.correct.min_member();
  const auto& stats = h.nodes[first]->quorum_stats();
  EXPECT_GT(stats.closure_runs, 0u);
  EXPECT_GT(stats.closure_cache_hits, 0u);
  EXPECT_GT(stats.qset_evals_baseline, stats.qset_evals)
      << "cached path must beat the rescan baseline";
  EXPECT_GT(stats.intern_hits, 0u);
  // Distinct qsets per replica is tiny (placeholder + per-sender slices),
  // even though 5 slots × 8 senders exchanged envelopes.
  EXPECT_LE(h.nodes[first]->ledger().engine().interned_count(), 16u);

  using sim::ProtoCounter;
  const auto& m = h.sim->metrics();
  EXPECT_EQ(m.protocol_counter(ProtoCounter::kQuorumClosureRuns) > 0, true);
  EXPECT_GT(m.protocol_counter(ProtoCounter::kQsetEvalsBaseline),
            m.protocol_counter(ProtoCounter::kQsetEvals));
  EXPECT_GT(m.protocol_counter(ProtoCounter::kSupportUpdates), 0u);
  // Report-time naming view covers every counter.
  EXPECT_EQ(m.protocol_counters_by_name().size(), sim::kProtoCounterCount);
}

TEST(LedgerMultiplexerTest, RequiresValueProvider) {
  // Direct unit check of the precondition.
  sim::Simulation sim(2, {});
  class Bare : public sim::ComposedNode {
   public:
    Bare() : ComposedNode(0), mux_(*this, 2, fbqs::QSet(), 1) {}
    void start() override { mux_.start(); }
    void on_message(ProcessId, const sim::MessagePtr&) override {}
    scp::LedgerMultiplexer mux_;
  };
  sim.emplace_process<Bare>(0);
  sim.emplace_process<SilentNode>(1);
  EXPECT_THROW(sim.start(), std::logic_error);
}

TEST(LedgerMultiplexerTest, SlotEnvelopeNaming) {
  const fbqs::QSet q = fbqs::QSet::threshold_of(1, std::vector<ProcessId>{0});
  const scp::SlotEnvelope e(
      3, scp::Envelope(0, 1, q, scp::Statement{scp::NominateStmt{}}));
  EXPECT_EQ(e.type_name(), "scp.slot.nominate");
  // The exact frame is the bare envelope's plus the u64 slot number.
  EXPECT_EQ(e.send_size().bytes, e.envelope.send_size().bytes + 8);
}

// Property sweep: random k-OSR graphs, 3-slot chains, random safe faults.
class LedgerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LedgerPropertyTest, ChainsAgreeOnRandomGraphs) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 3 + 1);
  const std::size_t f = 1;
  graph::KosrGenParams params;
  params.sink_size = 5;
  params.non_sink_size = 2 + seed % 3;
  params.k = 2 * f + 1;
  params.seed = seed;
  const auto g = graph::random_kosr_graph(params);
  const NodeSet sink = graph::unique_sink_component(g);
  const NodeSet faulty =
      graph::pick_safe_faulty_set(g, sink, f, /*allow_in_sink=*/true, rng);

  LedgerHarness h(g, f, faulty, 3, seed);
  ASSERT_TRUE(h.run()) << "seed=" << seed;
  const ProcessId first = h.correct.min_member();
  for (ProcessId i : h.correct) {
    EXPECT_EQ(h.nodes[i]->chain_digest(), h.nodes[first]->chain_digest())
        << "seed=" << seed << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LedgerPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace scup::core
