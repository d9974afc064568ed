// Tests for the SINK discovery algorithm and the sink detector oracle
// (Algorithm 3 / Theorem 6 / Lemma 6).
#include "sinkdetector/sink_detector.hpp"

#include <gtest/gtest.h>

#include "core/adversaries.hpp"
#include "core/experiment.hpp"
#include "graph/kosr.hpp"
#include "graph/generators.hpp"
#include "graph/scc.hpp"
#include "sim/composed.hpp"
#include "sim/simulation.hpp"

namespace scup::sinkdetector {
namespace {

/// A node that only runs the sink detector.
class DetectorOnlyNode : public sim::ComposedNode {
 public:
  DetectorOnlyNode(NodeSet pd, std::size_t f)
      : ComposedNode(f), detector_(*this, std::move(pd)) {}

  void start() override { detector_.start(); }
  void on_message(ProcessId from, const sim::MessagePtr& msg) override {
    detector_.handle(from, *msg);
  }

  SinkDetector detector_;
};

struct Harness {
  explicit Harness(const graph::Digraph& g, std::size_t f,
                   const NodeSet& faulty, std::uint64_t seed = 1,
                   core::AdversaryKind adversary =
                       core::AdversaryKind::kSilent) {
    sim::NetworkConfig net;
    net.gst = 0;
    net.min_delay = 1;
    net.max_delay = 10;
    net.seed = seed;
    sim = std::make_unique<sim::Simulation>(g.node_count(), net);
    nodes.assign(g.node_count(), nullptr);
    for (ProcessId i = 0; i < g.node_count(); ++i) {
      if (faulty.contains(i)) {
        if (adversary == core::AdversaryKind::kSilent) {
          sim->emplace_process<core::SilentNode>(i);
        } else {
          const NodeSet sink = graph::unique_sink_component(g);
          NodeSet fake(g.node_count());
          for (ProcessId v = 0; v < g.node_count() && fake.count() < 2; ++v) {
            if (!sink.contains(v) && v != i) fake.add(v);
          }
          if (fake.empty()) fake = g.pd_of(i);
          sim->emplace_process<core::DiscoveryLiarNode>(i, g.pd_of(i), fake,
                                                        f);
        }
        continue;
      }
      nodes[i] = &sim->emplace_process<DetectorOnlyNode>(i, g.pd_of(i), f);
    }
    correct = faulty.complement();
  }

  bool run(SimTime deadline = 500'000) {
    sim->start();
    return sim->run_until(
        [&] {
          for (ProcessId i : correct) {
            if (!nodes[i]->detector_.has_result()) return false;
          }
          return true;
        },
        deadline);
  }

  std::unique_ptr<sim::Simulation> sim;
  std::vector<DetectorOnlyNode*> nodes;
  NodeSet correct;
};

TEST(SinkDetectorTest, Fig1AllCorrectProcessesGetExactSink) {
  const auto g = graph::fig1_graph();
  const NodeSet faulty = graph::fig1_faulty();  // paper process 8
  Harness h(g, 1, faulty);
  ASSERT_TRUE(h.run());
  const NodeSet sink = graph::fig1_sink();
  for (ProcessId i : h.correct) {
    const auto& r = h.nodes[i]->detector_.result();
    EXPECT_EQ(r.sink, sink) << "i=" << i;
    EXPECT_EQ(r.is_sink_member, sink.contains(i)) << "i=" << i;
  }
}

TEST(SinkDetectorTest, Fig1NoFailures) {
  const auto g = graph::fig1_graph();
  Harness h(g, 1, NodeSet(8));
  ASSERT_TRUE(h.run());
  for (ProcessId i = 0; i < 8; ++i) {
    EXPECT_EQ(h.nodes[i]->detector_.result().sink, graph::fig1_sink());
  }
}

TEST(SinkDetectorTest, Fig2EverySingleFailurePlacement) {
  const auto g = graph::fig2_graph();
  for (ProcessId victim = 0; victim < 7; ++victim) {
    Harness h(g, 1, NodeSet(7, {victim}), /*seed=*/100 + victim);
    ASSERT_TRUE(h.run()) << "victim=" << victim;
    for (ProcessId i : h.correct) {
      const auto& r = h.nodes[i]->detector_.result();
      EXPECT_EQ(r.sink, graph::fig2_sink()) << "victim=" << victim
                                            << " i=" << i;
      EXPECT_EQ(r.is_sink_member, graph::fig2_sink().contains(i));
    }
  }
}

TEST(SinkDetectorTest, SinkMembersDiscoverDirectly) {
  // Sink members must terminate SINK themselves (Lemma 6), not just learn
  // the sink from others.
  const auto g = graph::fig2_graph();
  Harness h(g, 1, NodeSet(7, {5}));
  ASSERT_TRUE(h.run());
  for (ProcessId i : graph::fig2_sink()) {
    EXPECT_TRUE(h.nodes[i]->detector_.discovery().finished()) << "i=" << i;
    EXPECT_EQ(h.nodes[i]->detector_.discovery().sink(), graph::fig2_sink());
  }
}

TEST(SinkDetectorTest, NonSinkMembersLearnIndirectly) {
  const auto g = graph::fig2_graph();
  Harness h(g, 1, NodeSet(7));
  ASSERT_TRUE(h.run());
  for (ProcessId i = 4; i < 7; ++i) {
    // Non-sink members cannot complete SINK directly on this graph.
    EXPECT_FALSE(h.nodes[i]->detector_.discovery().finished()) << "i=" << i;
    EXPECT_FALSE(h.nodes[i]->detector_.result().is_sink_member);
    EXPECT_EQ(h.nodes[i]->detector_.result().sink, graph::fig2_sink());
  }
}

TEST(SinkDetectorTest, WithPreGstAsynchrony) {
  // The oracle must still return under arbitrary pre-GST delays (partial
  // synchrony, Section III-A).
  const auto g = graph::fig2_graph();
  sim::NetworkConfig net;
  net.gst = 5'000;
  net.pre_gst_max_delay = 3'000;
  net.min_delay = 1;
  net.max_delay = 10;
  net.seed = 5;

  sim::Simulation sim(7, net);
  std::vector<DetectorOnlyNode*> nodes(7, nullptr);
  for (ProcessId i = 0; i < 7; ++i) {
    nodes[i] = &sim.emplace_process<DetectorOnlyNode>(i, g.pd_of(i), 1);
  }
  sim.start();
  const bool done = sim.run_until(
      [&] {
        for (auto* n : nodes) {
          if (!n->detector_.has_result()) return false;
        }
        return true;
      },
      1'000'000);
  ASSERT_TRUE(done);
  for (auto* n : nodes) {
    EXPECT_EQ(n->detector_.result().sink, graph::fig2_sink());
  }
}

TEST(SinkDetectorTest, DiscoveryLiarCannotPolluteTheSink) {
  // A Byzantine sink member fabricates PD edges toward non-sink processes.
  // The f+1-claims filter (DESIGN.md §4.1) keeps the estimate exact.
  graph::KosrGenParams params;
  params.sink_size = 5;
  params.non_sink_size = 3;
  params.k = 3;  // 2f+1 for f=1
  params.seed = 17;
  const auto g = graph::random_kosr_graph(params);
  const NodeSet sink = graph::unique_sink_component(g);
  // Faulty: one sink member (id 0 is in the sink by construction).
  const NodeSet faulty(g.node_count(), {0});
  ASSERT_TRUE(graph::satisfies_bft_cup_preconditions(g, faulty, 1));

  Harness h(g, 1, faulty, /*seed=*/3, core::AdversaryKind::kDiscoveryLiar);
  ASSERT_TRUE(h.run());
  for (ProcessId i : h.correct) {
    const auto& r = h.nodes[i]->detector_.result();
    EXPECT_EQ(r.sink, sink) << "i=" << i;
    EXPECT_EQ(r.is_sink_member, sink.contains(i)) << "i=" << i;
  }
}

/// ProtocolHost fake for driving one SinkDetector by hand: sends are
/// dropped, timers never fire.
class DetachedHost : public sim::ProtocolHost {
 public:
  DetachedHost(ProcessId self, std::size_t n, std::size_t f)
      : self_(self), n_(n), f_(f) {}

  ProcessId self() const override { return self_; }
  std::size_t universe() const override { return n_; }
  std::size_t fault_threshold() const override { return f_; }
  void host_send(ProcessId, sim::MessagePtr) override {}
  void host_set_timer(int, SimTime) override {}
  SimTime host_now() const override { return 0; }
  std::uint64_t host_sign(std::uint64_t) const override { return 0; }
  bool host_verify(ProcessId, std::uint64_t, std::uint64_t) const override {
    return true;
  }

 private:
  ProcessId self_;
  std::size_t n_;
  std::size_t f_;
};

TEST(SinkDetectorTest, OneVotePerSenderBoundsTheValueTable) {
  // Byzantine memory: a sender naming ever-new ⟨SINK, V⟩ values must not
  // grow the vote table. Its first value is its vote; the rest are noise.
  const std::size_t n = 16;
  const std::size_t f = 1;
  DetachedHost host(0, n, f);
  SinkDetector detector(host, NodeSet(n, {1, 2}));
  const NodeSet sink(n, {1, 2, 3, 4});
  const ProcessId liar = 9;
  for (std::uint32_t bits = 1; bits <= 10'000; ++bits) {
    // Distinct subsets of {2, ..., 15}; none contains 1, so none is `sink`.
    NodeSet value(n);
    for (ProcessId b = 0; b < 14; ++b) {
      if ((bits >> b) & 1U) value.add(b + 2);
    }
    detector.handle(liar, cup::SinkValueMsg(value));
  }
  EXPECT_EQ(detector.vote_values(), 1u);
  EXPECT_FALSE(detector.has_result());

  // f+1 honest senders naming the sink still complete detection.
  for (ProcessId honest = 1; honest <= f + 1; ++honest) {
    EXPECT_FALSE(detector.has_result());
    detector.handle(honest, cup::SinkValueMsg(sink));
  }
  ASSERT_TRUE(detector.has_result());
  EXPECT_EQ(detector.result().sink, sink);
  EXPECT_FALSE(detector.result().is_sink_member);
  EXPECT_EQ(detector.vote_values(), 2u);
}

// Property sweep: random k-OSR graphs, random safe failure placements,
// silent adversaries — Theorem 6 must hold on every run.
class SinkDetectorPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SinkDetectorPropertyTest, Theorem6OnRandomGraphs) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 31 + 7);
  const std::size_t f = 1 + seed % 2;
  graph::KosrGenParams params;
  params.sink_size = 3 * f + 2;
  params.non_sink_size = 2 + seed % 4;
  params.k = 2 * f + 1;
  params.seed = seed;
  const auto g = graph::random_kosr_graph(params);
  const NodeSet sink = graph::unique_sink_component(g);
  const NodeSet faulty =
      graph::pick_safe_faulty_set(g, sink, f, /*allow_in_sink=*/true, rng);

  Harness h(g, f, faulty, seed);
  ASSERT_TRUE(h.run()) << "seed=" << seed;
  for (ProcessId i : h.correct) {
    const auto& r = h.nodes[i]->detector_.result();
    EXPECT_EQ(r.sink, sink) << "seed=" << seed << " i=" << i;
    EXPECT_EQ(r.is_sink_member, sink.contains(i))
        << "seed=" << seed << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SinkDetectorPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace scup::sinkdetector
