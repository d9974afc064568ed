// Tests for the SINK discovery algorithm and the sink detector oracle
// (Algorithm 3 / Theorem 6 / Lemma 6).
#include "sinkdetector/sink_detector.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "bftcup/bftcup_node.hpp"
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

/// DetachedHost that records every send.
class RecordingHost : public DetachedHost {
 public:
  using DetachedHost::DetachedHost;
  void host_send(ProcessId to, sim::MessagePtr msg) override {
    sent_.emplace_back(to, msg->encode_frame());
  }

  using Sends = std::vector<std::pair<ProcessId, std::vector<std::uint8_t>>>;
  /// The sends since the last call, as (destination, frame) pairs.
  Sends take() { return std::exchange(sent_, {}); }

 private:
  Sends sent_;
};

/// Feeds answers to a FloodQuery at process 0 with f = 1 that has no votes
/// yet; `a` and `b` are distinct values.
template <typename Query, typename Value>
void check_votes(Query& query, const Value& a, const Value& b) {
  // One vote per sender: 4's repeat and its second value do not count.
  EXPECT_EQ(query.on_answer(4, a), nullptr);
  EXPECT_EQ(query.on_answer(4, a), nullptr);
  EXPECT_EQ(query.on_answer(4, b), nullptr);
  EXPECT_EQ(query.vote_values(), 1u);
  EXPECT_EQ(query.on_answer(5, b), nullptr);
  // The second distinct sender naming a (f+1 = 2) adopts it, and only it.
  const Value* adopted = query.on_answer(6, a);
  ASSERT_NE(adopted, nullptr);
  EXPECT_EQ(*adopted, a);
  EXPECT_EQ(query.on_answer(7, a), nullptr);
  EXPECT_EQ(query.vote_values(), 2u);
}

/// Drives one FloodQuery by hand at process 0 with PD = {1, 2, 3}, f = 1.
template <typename Request, typename Answer, typename Value>
void check_flood_query(const Value& a, const Value& b) {
  const std::size_t n = 8;
  RecordingHost host(0, n, 1);
  FloodQuery<Request, Answer, Value> query(host, NodeSet(n, {1, 2, 3}));
  const auto request = [](ProcessId origin) {
    return sim::make_message<Request>(origin)->encode_frame();
  };
  const auto answer = [](const Value& v) {
    return sim::make_message<Answer>(v)->encode_frame();
  };
  using Sends = RecordingHost::Sends;

  // Our own request goes to all of PD; its echo is neither forwarded nor
  // recorded as a requester.
  query.ask();
  query.on_request(1, 0);
  EXPECT_EQ(host.take(),
            (Sends{{1, request(0)}, {2, request(0)}, {3, request(0)}}));

  // Forwarded once per origin, never back to the sender; an origin outside
  // the universe is dropped.
  query.on_request(1, 5);
  query.on_request(2, 5);
  query.on_request(2, static_cast<ProcessId>(n));
  EXPECT_EQ(host.take(), (Sends{{2, request(5)}, {3, request(5)}}));

  // 5 asked twice and is answered once; 6 asks after the answer is known
  // and is answered at once; our own origin never is.
  query.answer(a);
  query.on_request(3, 6);
  query.on_request(2, 0);
  EXPECT_EQ(host.take(), (Sends{{5, answer(a)},
                                {1, request(6)},
                                {2, request(6)},
                                {6, answer(a)}}));
  // A requery re-flood from 5 is answered again, once.
  query.on_request(1, 5);
  EXPECT_EQ(host.take(), (Sends{{5, answer(a)}}));

  check_votes(query, a, b);
  EXPECT_TRUE(host.take().empty());
}

TEST(FloodQueryTest, ForwardsOnceAnswersOnceAndCountsOneVotePerSender) {
  check_flood_query<cup::GetSinkMsg, cup::SinkValueMsg, NodeSet>(
      NodeSet(8, {1, 2, 3}), NodeSet(8, {1, 2}));
}

TEST(FloodQueryTest, RecordAnswersWithoutForwarding) {
  // BFT-CUP's dissemination: the sink detector forwards each GET_SINK, and
  // this query only records its origin and answers it with the decision.
  const std::size_t n = 8;
  RecordingHost host(0, n, 1);
  FloodQuery<cup::GetSinkMsg, bftcup::DecisionMsg, Value> query(
      host, NodeSet(n, {1, 2, 3}));
  const auto get_sink = [](ProcessId origin) {
    return sim::make_message<cup::GetSinkMsg>(origin)->encode_frame();
  };
  const auto decision = [](Value v) {
    return sim::make_message<bftcup::DecisionMsg>(v)->encode_frame();
  };
  using Sends = RecordingHost::Sends;
  const auto outside = static_cast<ProcessId>(n);

  // A recorded origin is never forwarded; our own origin and one outside
  // the universe are dropped.
  query.record(5);
  query.record(5);
  query.record(0);
  query.record(outside);
  EXPECT_TRUE(host.take().empty());

  // The answer goes to every origin recorded so far, once.
  query.answer(Value{7});
  EXPECT_EQ(host.take(), (Sends{{5, decision(7)}}));

  // After it, once per delivery; still never to us or outside the universe.
  query.record(6);
  query.record(5);
  query.record(5);
  query.record(0);
  query.record(outside);
  EXPECT_EQ(host.take(),
            (Sends{{6, decision(7)}, {5, decision(7)}, {5, decision(7)}}));

  // ask() is the requery re-flood: our own GET_SINK to all of PD.
  query.ask();
  EXPECT_EQ(host.take(),
            (Sends{{1, get_sink(0)}, {2, get_sink(0)}, {3, get_sink(0)}}));

  check_votes(query, Value{7}, Value{9});
  EXPECT_TRUE(host.take().empty());
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
