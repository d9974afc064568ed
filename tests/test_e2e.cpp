// End-to-end integration tests: the full pipelines of the paper —
// Stellar+SD (Theorem 5 / Corollary 2) and the BFT-CUP baseline (Theorem 1)
// — on the paper's figures and on random k-OSR families, under several
// Byzantine behaviours and pre-GST asynchrony.
#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/kosr.hpp"
#include "graph/scc.hpp"

namespace scup::core {
namespace {

ScenarioConfig base_config(graph::Digraph g, std::size_t f, NodeSet faulty,
                           std::uint64_t seed = 1) {
  ScenarioConfig cfg;
  cfg.graph = std::move(g);
  cfg.f = f;
  cfg.faulty = std::move(faulty);
  cfg.net.seed = seed;
  cfg.net.min_delay = 1;
  cfg.net.max_delay = 10;
  return cfg;
}

void expect_consensus(const ScenarioReport& r, const char* what) {
  EXPECT_TRUE(r.all_decided) << what << ": " << r.summary();
  EXPECT_TRUE(r.agreement) << what << ": " << r.summary();
  EXPECT_TRUE(r.validity) << what << ": " << r.summary();
}

TEST(EndToEndTest, StellarSdOnFig1) {
  auto cfg = base_config(graph::fig1_graph(), 1, graph::fig1_faulty());
  const auto report = run_scenario(cfg);
  expect_consensus(report, "fig1 stellar");
  EXPECT_TRUE(report.sd_all_returned);
  EXPECT_TRUE(report.sd_sink_exact);
  EXPECT_TRUE(report.sd_flags_correct);
  EXPECT_EQ(report.true_sink, graph::fig1_sink());
}

TEST(EndToEndTest, BftCupOnFig1) {
  auto cfg = base_config(graph::fig1_graph(), 1, graph::fig1_faulty());
  cfg.protocol = ProtocolKind::kBftCup;
  const auto report = run_scenario(cfg);
  expect_consensus(report, "fig1 bftcup");
  EXPECT_TRUE(report.sd_sink_exact);
  EXPECT_GT(report.sd_last_return, 0);
  EXPECT_LE(report.sd_last_return, report.end_time);
}

TEST(EndToEndTest, StellarSdOnFig2AllFailurePlacements) {
  // Corollary 2 on the very graph used for the negative result: with the
  // sink detector, Stellar solves consensus on Fig. 2 for any single fault.
  for (ProcessId victim = 0; victim < 7; ++victim) {
    auto cfg = base_config(graph::fig2_graph(), 1, NodeSet(7, {victim}),
                           /*seed=*/40 + victim);
    const auto report = run_scenario(cfg);
    expect_consensus(report, "fig2 stellar");
    EXPECT_TRUE(report.sd_sink_exact) << "victim=" << victim;
  }
}

TEST(EndToEndTest, BftCupOnFig2) {
  auto cfg = base_config(graph::fig2_graph(), 1, NodeSet(7, {5}));
  cfg.protocol = ProtocolKind::kBftCup;
  const auto report = run_scenario(cfg);
  expect_consensus(report, "fig2 bftcup");
  EXPECT_GT(report.sd_last_return, 0);
  EXPECT_LE(report.sd_last_return, report.end_time);
}

TEST(EndToEndTest, StellarSdUnderPreGstAsynchrony) {
  auto cfg = base_config(graph::fig2_graph(), 1, NodeSet(7, {3}), 77);
  cfg.net.gst = 8'000;
  cfg.net.pre_gst_max_delay = 2'000;
  const auto report = run_scenario(cfg);
  expect_consensus(report, "fig2 stellar pre-GST");
}

TEST(EndToEndTest, ScpEquivocatorCannotBreakAgreement) {
  auto cfg = base_config(graph::fig2_graph(), 1, NodeSet(7, {1}), 13);
  cfg.adversary = AdversaryKind::kScpEquivocator;
  const auto report = run_scenario(cfg);
  EXPECT_TRUE(report.all_decided) << report.summary();
  EXPECT_TRUE(report.agreement) << report.summary();
}

TEST(EndToEndTest, DiscoveryLiarHandled) {
  graph::KosrGenParams params;
  params.sink_size = 5;
  params.non_sink_size = 3;
  params.k = 3;
  params.seed = 6;
  const auto g = graph::random_kosr_graph(params);
  const NodeSet faulty(g.node_count(), {1});  // sink member by construction
  ASSERT_TRUE(graph::satisfies_bft_cup_preconditions(g, faulty, 1));
  auto cfg = base_config(g, 1, faulty, 21);
  cfg.adversary = AdversaryKind::kDiscoveryLiar;
  const auto report = run_scenario(cfg);
  expect_consensus(report, "liar");
  EXPECT_TRUE(report.sd_sink_exact);
}

TEST(EndToEndTest, DiscoveryEquivocatorHandled) {
  graph::KosrGenParams params;
  params.sink_size = 5;
  params.non_sink_size = 3;
  params.k = 3;
  params.seed = 8;
  const auto g = graph::random_kosr_graph(params);
  const NodeSet faulty(g.node_count(), {2});
  ASSERT_TRUE(graph::satisfies_bft_cup_preconditions(g, faulty, 1));
  auto cfg = base_config(g, 1, faulty, 22);
  cfg.adversary = AdversaryKind::kDiscoveryEquivocator;
  const auto report = run_scenario(cfg);
  expect_consensus(report, "equivocating liar");
}

TEST(EndToEndTest, ReportRejectsTooManyFaults) {
  auto cfg = base_config(graph::fig2_graph(), 1, NodeSet(7, {0, 1}));
  EXPECT_THROW(run_scenario(cfg), std::invalid_argument);
}

TEST(EndToEndTest, DecisionTimesAreOrderedAndRecorded) {
  auto cfg = base_config(graph::fig1_graph(), 1, graph::fig1_faulty(), 3);
  const auto report = run_scenario(cfg);
  ASSERT_TRUE(report.all_decided);
  EXPECT_LE(report.first_decision, report.last_decision);
  for (ProcessId i = 0; i < 8; ++i) {
    if (cfg.faulty.contains(i)) {
      EXPECT_EQ(report.decision_times[i], kTimeInfinity);
    } else {
      EXPECT_LT(report.decision_times[i], kTimeInfinity);
    }
  }
  EXPECT_GT(report.metrics.messages_sent, 0u);
}

// The paper's headline comparison (E6 vs E7): on identical graphs and
// failure sets, BOTH protocols solve consensus with the same minimal
// knowledge — Stellar needs the SD oracle, BFT-CUP its discovery + PBFT.
class ProtocolComparisonTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolComparisonTest, BothProtocolsDecideOnRandomKosrGraphs) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 7 + 11);
  const std::size_t f = 1 + seed % 2;
  graph::KosrGenParams params;
  params.sink_size = 3 * f + 2;
  params.non_sink_size = 2 + seed % 3;
  params.k = 2 * f + 1;
  params.seed = seed;
  const auto g = graph::random_kosr_graph(params);
  const NodeSet sink = graph::unique_sink_component(g);
  const NodeSet faulty =
      graph::pick_safe_faulty_set(g, sink, f, /*allow_in_sink=*/true, rng);

  for (ProtocolKind protocol :
       {ProtocolKind::kStellarSd, ProtocolKind::kBftCup}) {
    auto cfg = base_config(g, f, faulty, seed);
    cfg.protocol = protocol;
    const auto report = run_scenario(cfg);
    expect_consensus(report, protocol == ProtocolKind::kStellarSd
                                 ? "stellar"
                                 : "bftcup");
    EXPECT_TRUE(report.sd_sink_exact) << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolComparisonTest,
                         ::testing::Range<std::uint64_t>(1, 16));

}  // namespace
}  // namespace scup::core
