// SCP protocol tests: federated voting semantics, nomination + ballot
// convergence, Byzantine tolerance within a consensus cluster.
#include "scp/scp_node.hpp"

#include <gtest/gtest.h>

#include "core/adversaries.hpp"
#include "sim/composed.hpp"
#include "sim/simulation.hpp"

namespace scup::scp {
namespace {

class ScpOnlyNode : public sim::ComposedNode {
 public:
  ScpOnlyNode(std::size_t universe, std::size_t f, fbqs::QSet qset,
              Value value)
      : ComposedNode(f), scp_(*this, universe, std::move(qset), value) {}

  void start() override {
    for (ProcessId p = 0; p < universe(); ++p) scp_.add_peer(p);
    scp_.start();
  }
  void on_message(ProcessId from, const sim::MessagePtr& msg) override {
    scp_.handle(from, msg);
  }
  void on_timer(int timer_id) override {
    if (timer_id == kScpBallotTimerId) scp_.on_ballot_timer();
  }

  ScpNode scp_;
};

/// Sends conflicting nominations and then goes silent.
class NominationEquivocator : public sim::ComposedNode {
 public:
  NominationEquivocator(std::size_t universe, std::size_t f, fbqs::QSet qset)
      : ComposedNode(f), universe_n_(universe), qset_(std::move(qset)) {}

  void start() override {
    for (ProcessId p = 0; p < universe_n_; ++p) {
      if (p == id()) continue;
      NominateStmt stmt;
      stmt.voted = {p % 2 == 0 ? Value{71} : Value{72}};
      send(p, std::make_shared<const Envelope>(id(), 1, qset_,
                                               Statement{stmt}));
    }
  }
  void on_message(ProcessId, const sim::MessagePtr&) override {}

 private:
  std::size_t universe_n_;
  fbqs::QSet qset_;
};

fbqs::QSet majority_qset(std::size_t n, std::size_t f) {
  std::vector<ProcessId> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = static_cast<ProcessId>(i);
  return fbqs::QSet::threshold_of((n + f + 1 + 1) / 2, std::move(all));
}

struct ScpHarness {
  ScpHarness(std::size_t n, std::size_t f, const NodeSet& faulty,
             std::uint64_t seed = 1, bool equivocator = false,
             SimTime gst = 0) {
    sim::NetworkConfig net;
    net.gst = gst;
    net.min_delay = 1;
    net.max_delay = 10;
    net.pre_gst_max_delay = 300;
    net.seed = seed;
    sim = std::make_unique<sim::Simulation>(n, net);
    nodes.assign(n, nullptr);
    const fbqs::QSet qset = majority_qset(n, f);
    for (ProcessId i = 0; i < n; ++i) {
      if (faulty.contains(i)) {
        if (equivocator) {
          sim->emplace_process<NominationEquivocator>(i, n, f, qset);
        } else {
          sim->emplace_process<core::SilentNode>(i);
        }
        continue;
      }
      nodes[i] = &sim->emplace_process<ScpOnlyNode>(i, n, f, qset,
                                                    /*value=*/100 + i);
    }
    correct = faulty.complement();
  }

  bool run(SimTime deadline = 1'000'000) {
    sim->start();
    return sim->run_until(
        [&] {
          for (ProcessId i : correct) {
            if (!nodes[i]->scp_.decided()) return false;
          }
          return true;
        },
        deadline);
  }

  void check_agreement_validity(std::size_t n) {
    std::optional<Value> agreed;
    for (ProcessId i : correct) {
      ASSERT_TRUE(nodes[i]->scp_.decided()) << "i=" << i;
      const Value v = nodes[i]->scp_.decision();
      if (!agreed) agreed = v;
      EXPECT_EQ(*agreed, v) << "agreement violated at " << i;
    }
    // Validity: value proposed by someone (correct: 100+i; equivocator: 71
    // or 72).
    ASSERT_TRUE(agreed.has_value());
    const bool from_correct = *agreed >= 100 && *agreed < 100 + n;
    const bool from_equivocator = *agreed == 71 || *agreed == 72;
    EXPECT_TRUE(from_correct || from_equivocator) << "value " << *agreed;
  }

  std::unique_ptr<sim::Simulation> sim;
  std::vector<ScpOnlyNode*> nodes;
  NodeSet correct;
};

TEST(ScpTest, FourNodesAllCorrectDecide) {
  ScpHarness h(4, 1, NodeSet(4));
  ASSERT_TRUE(h.run());
  h.check_agreement_validity(4);
  for (ProcessId i = 0; i < 4; ++i) {
    EXPECT_EQ(h.nodes[i]->scp_.phase(), ScpNode::Phase::kExternalize);
  }
}

TEST(ScpTest, SilentMinorityTolerated) {
  ScpHarness h(4, 1, NodeSet(4, {3}));
  ASSERT_TRUE(h.run());
  h.check_agreement_validity(4);
}

TEST(ScpTest, SevenNodesTwoSilent) {
  ScpHarness h(7, 2, NodeSet(7, {2, 5}));
  ASSERT_TRUE(h.run());
  h.check_agreement_validity(7);
}

TEST(ScpTest, NominationEquivocatorCannotSplit) {
  ScpHarness h(4, 1, NodeSet(4, {0}), /*seed=*/9, /*equivocator=*/true);
  ASSERT_TRUE(h.run());
  h.check_agreement_validity(4);
}

TEST(ScpTest, RotatingQsetsAreBoundedByTheRebindBudget) {
  // A Byzantine sender announcing a structurally fresh qset on every
  // envelope must not grow the quorum engine's intern table without bound —
  // every intern() of an unseen qset is permanent engine memory, and the
  // sender chooses the qset. Past the per-sender rebind budget the node
  // keeps the sender's current binding.
  ScpOnlyNode node(/*universe=*/32, /*f=*/1, majority_qset(32, 1),
                   /*value=*/7);
  const std::size_t before = node.scp_.engine().interned_count();
  for (std::uint64_t i = 0; i < 32; ++i) {
    NominateStmt stmt;
    stmt.voted = {42};
    const std::vector<ProcessId> members{static_cast<ProcessId>(i)};
    const auto env = sim::make_message<Envelope>(
        /*sender=*/2, /*seq=*/i + 1, fbqs::QSet::threshold_of(1, members),
        Statement{stmt});
    EXPECT_TRUE(node.scp_.handle(2, env));
  }
  const std::size_t grown = node.scp_.engine().interned_count() - before;
  EXPECT_GE(grown, 1u);  // the first binding is always accepted
  EXPECT_LE(grown, ScpNode::kMaxQsetRebinds + 1);
}

TEST(ScpTest, StoredBallotEnvelopeIsTheDeliveredMessage) {
  // handle() stores the delivered message itself, not a copy, and the
  // stored pointer keeps it alive once the caller drops its own.
  ScpOnlyNode node(/*universe=*/4, /*f=*/1, majority_qset(4, 1),
                   /*value=*/7);
  PrepareStmt prep;
  prep.b = Ballot{1, 42};
  sim::MessagePtr msg = sim::make_message<Envelope>(
      /*sender=*/2, /*seq=*/3, majority_qset(4, 1), Statement{prep});
  const sim::Message* delivered = msg.get();
  EXPECT_TRUE(node.scp_.handle(2, msg));
  msg.reset();
  const auto& stored = node.scp_.ballot_envelopes().at(2);
  EXPECT_EQ(static_cast<const sim::Message*>(stored.get()), delivered);
  EXPECT_EQ(std::get<PrepareStmt>(stored->statement).b, (Ballot{1, 42}));
}

TEST(ScpTest, DecidesUnderPreGstAsynchrony) {
  ScpHarness h(4, 1, NodeSet(4, {1}), /*seed=*/11, /*equivocator=*/false,
               /*gst=*/5'000);
  ASSERT_TRUE(h.run());
  h.check_agreement_validity(4);
}

TEST(ScpTest, IntegrityDecidesOnce) {
  ScpHarness h(4, 1, NodeSet(4));
  int decisions = 0;
  h.sim->start();
  h.nodes[0]->scp_.on_decide = [&](Value) { ++decisions; };
  h.sim->run_until([&] { return false; }, 50'000);
  EXPECT_EQ(decisions, 1);
  EXPECT_TRUE(h.nodes[0]->scp_.decided());
}

TEST(ScpTest, AsymmetricQsetsSinkAndNonSink) {
  // Mimics the paper's Algorithm-2 structure: 4 "sink" nodes with
  // ⌈(4+1+1)/2⌉ = 3-of-sink qsets, 2 "non-sink" nodes with 2-of-sink
  // qsets (f = 1). All six must decide the same value.
  const std::size_t n = 6;
  std::vector<ProcessId> sink{0, 1, 2, 3};
  const fbqs::QSet sink_qset = fbqs::QSet::threshold_of(3, sink);
  const fbqs::QSet nonsink_qset = fbqs::QSet::threshold_of(2, sink);

  sim::NetworkConfig net;
  net.seed = 4;
  sim::Simulation sim(n, net);
  std::vector<ScpOnlyNode*> nodes(n);
  for (ProcessId i = 0; i < n; ++i) {
    nodes[i] = &sim.emplace_process<ScpOnlyNode>(
        i, n, 1, i < 4 ? sink_qset : nonsink_qset, 100 + i);
  }
  sim.start();
  const bool done = sim.run_until(
      [&] {
        for (auto* node : nodes) {
          if (!node->scp_.decided()) return false;
        }
        return true;
      },
      1'000'000);
  ASSERT_TRUE(done);
  for (ProcessId i = 1; i < n; ++i) {
    EXPECT_EQ(nodes[i]->scp_.decision(), nodes[0]->scp_.decision());
  }
}

TEST(ScpTest, SetQsetAfterStartThrows) {
  sim::NetworkConfig net;
  sim::Simulation sim(1, net);
  auto& node = sim.emplace_process<ScpOnlyNode>(0, 1, 0,
                                                majority_qset(1, 0), 5);
  sim.start();
  EXPECT_THROW(node.scp_.set_qset(majority_qset(1, 0)), std::logic_error);
}

TEST(ScpTest, DecisionBeforeDecidedThrows) {
  sim::NetworkConfig net;
  sim::Simulation sim(2, net);
  auto& a = sim.emplace_process<ScpOnlyNode>(0, 2, 0, majority_qset(2, 0), 5);
  sim.emplace_process<core::SilentNode>(1);
  EXPECT_THROW((void)a.scp_.decision(), std::logic_error);
}

// Property sweep: across seeds and system sizes, SCP with majority qsets
// and up to f silent nodes satisfies Agreement, Validity, Termination.
class ScpPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScpPropertyTest, ConsensusOnRandomConfigurations) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 13 + 5);
  const std::size_t n = 4 + rng.uniform(5);           // 4..8
  const std::size_t f = (n - 1) / 3;
  NodeSet faulty(n);
  const std::size_t actual_faults = rng.uniform(f + 1);
  for (ProcessId p : rng.sample_ids(n, actual_faults)) faulty.add(p);

  ScpHarness h(n, f, faulty, seed, /*equivocator=*/seed % 2 == 0);
  ASSERT_TRUE(h.run()) << "n=" << n << " f=" << f
                       << " faulty=" << faulty.to_string();
  h.check_agreement_validity(n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScpPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 31));

}  // namespace
}  // namespace scup::scp
