// Unit tests for the SINK algorithm (cup::SinkDiscovery) driven through a
// fake ProtocolHost, without a simulation: the step-3 matching rules, the
// incremental admission path (degree bounds, cached max-flow cuts, the f = 1
// dominator batch) against a recompute-from-scratch reference, and the
// shared gossip-reply cache. One simulated f = 2 run pins the admission
// counters of the max-flow path, which no gated bench row covers. The
// simulation-level behaviour is covered by test_sink_detector and
// test_sink_convergence.
//
// The allocation tests replace global operator new with a counting shim.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/adversaries.hpp"
#include "core/experiment.hpp"
#include "cup/sink_discovery.hpp"
#include "graph/disjoint_paths.hpp"
#include "graph/generators.hpp"
#include "graph/scc.hpp"
#include "sim/composed.hpp"
#include "sim/host.hpp"
#include "sim/simulation.hpp"

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace scup::cup {
namespace {

/// Heap allocations made while running `body`. gtest allocates too, so
/// every check counts only across the statements under test.
template <typename Body>
std::uint64_t allocs_during(Body&& body) {
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  body();
  return g_heap_allocs.load(std::memory_order_relaxed) - before;
}

class FakeHost : public sim::ProtocolHost {
 public:
  FakeHost(ProcessId self, std::size_t n, std::size_t f)
      : self_(self), n_(n), f_(f) {}

  ProcessId self() const override { return self_; }
  std::size_t universe() const override { return n_; }
  std::size_t fault_threshold() const override { return f_; }
  void host_send(ProcessId to, sim::MessagePtr msg) override {
    sent.emplace_back(to, std::move(msg));
  }
  void host_set_timer(int, SimTime) override {}
  std::uint64_t host_sign(std::uint64_t) const override { return 0; }
  bool host_verify(ProcessId, std::uint64_t, std::uint64_t) const override {
    return true;
  }

  std::vector<std::pair<ProcessId, sim::MessagePtr>> sent;

 private:
  ProcessId self_;
  std::size_t n_;
  std::size_t f_;
};

/// The certificate `reply` carries for `owner`, or nullptr.
const NodeSet* cert_of(const CertGossipMsg& reply, ProcessId owner) {
  for (const auto& cert : reply.certs) {
    if (cert.owner == owner) return &cert.pd;
  }
  return nullptr;
}

/// Every gossip reply `host` has sent so far, in send order.
std::vector<const CertGossipMsg*> gossip_replies(const FakeHost& host) {
  std::vector<const CertGossipMsg*> replies;
  for (const auto& [to, msg] : host.sent) {
    if (const auto* g = dynamic_cast<const CertGossipMsg*>(msg.get())) {
      replies.push_back(g);
    }
  }
  return replies;
}

/// The first process `host` has not sent exactly the DISCOVER queries it
/// owes: one to every node reachable from self in the certified graph, none
/// to any other. kInvalidProcess when every count is right.
ProcessId first_misqueried(const FakeHost& host, const SinkDiscovery& d) {
  std::vector<std::size_t> counts(host.universe(), 0);
  for (const auto& [to, msg] : host.sent) {
    if (dynamic_cast<const DiscoverMsg*>(msg.get()) != nullptr) ++counts[to];
  }
  NodeSet targets = d.certified_graph().reachable_from(host.self());
  targets.remove(host.self());
  for (ProcessId j = 0; j < counts.size(); ++j) {
    if (counts[j] != (targets.contains(j) ? 1u : 0u)) return j;
  }
  return kInvalidProcess;
}

/// Every process id below `n` but `self`, in a random order.
std::vector<ProcessId> shuffled(std::size_t n, ProcessId self, Rng& rng) {
  std::vector<ProcessId> order;
  for (ProcessId v = 0; v < n; ++v) {
    if (v != self) order.push_back(v);
  }
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_range(0, i - 1)]);
  }
  return order;
}

/// Builds a discovery at process 0 over a triangle {0,1,2} (f = 1) and
/// brings it to the published-KNOWN state.
struct TriangleFixture {
  static constexpr std::size_t kN = 8;
  FakeHost host{0, kN, 1};
  SinkDiscovery discovery{host, NodeSet(kN, {1, 2})};

  TriangleFixture() {
    discovery.start();
    discovery.handle(1, DiscoverMsg({1, NodeSet(kN, {0, 2})}));
    discovery.handle(2, DiscoverMsg({2, NodeSet(kN, {0, 1})}));
    // Candidate is the triangle and both members responded, so KNOWN is out.
    EXPECT_EQ(discovery.candidate_set(), NodeSet(kN, {0, 1, 2}));
  }
};

TEST(SinkDiscoveryMatch, OutsiderDisagreementDoesNotBlockTheMatch) {
  TriangleFixture fx;
  // f+1 = 2 chatty outsiders report KNOWN sets different from our
  // candidate. Only candidate members' views bear on whether the candidate
  // is a self-contained sink; outsiders must be ignored.
  fx.discovery.handle(5, KnownMsg(NodeSet(TriangleFixture::kN, {5, 6})));
  fx.discovery.handle(6, KnownMsg(NodeSet(TriangleFixture::kN, {5, 6, 7})));

  // The direct match must still complete from the members' reports.
  fx.discovery.handle(1, KnownMsg(NodeSet(TriangleFixture::kN, {0, 1, 2})));
  fx.discovery.handle(2, KnownMsg(NodeSet(TriangleFixture::kN, {0, 1, 2})));
  EXPECT_TRUE(fx.discovery.finished());
  EXPECT_EQ(fx.discovery.sink(), NodeSet(TriangleFixture::kN, {0, 1, 2}));
}

TEST(SinkDiscoveryMatch, MemberDisagreementPreventsTheMatch) {
  TriangleFixture fx;
  // Both *members* report supersets: the candidate is not a sink they
  // agree on, so the direct match must not complete.
  fx.discovery.handle(1, KnownMsg(NodeSet(TriangleFixture::kN, {0, 1, 2, 3})));
  fx.discovery.handle(2, KnownMsg(NodeSet(TriangleFixture::kN, {0, 1, 2, 3})));
  EXPECT_FALSE(fx.discovery.finished());
}

TEST(SinkDiscoveryMatch, OutsiderAgreementDoesNotCountTowardMatching) {
  TriangleFixture fx;
  // One member matches; two outsiders echo the candidate. 1 (self) + 1
  // member = 2 >= |V| - f = 2 only after the member's report — outsider
  // echoes alone must not complete the match.
  fx.discovery.handle(5, KnownMsg(NodeSet(TriangleFixture::kN, {0, 1, 2})));
  fx.discovery.handle(6, KnownMsg(NodeSet(TriangleFixture::kN, {0, 1, 2})));
  EXPECT_FALSE(fx.discovery.finished());
  fx.discovery.handle(2, KnownMsg(NodeSet(TriangleFixture::kN, {0, 1, 2})));
  EXPECT_TRUE(fx.discovery.finished());
}

TEST(SinkDiscoveryGossip, ReplyIsSharedUntilCertificatesChange) {
  const std::size_t n = 8;
  FakeHost host(0, n, 1);
  SinkDiscovery discovery(host, NodeSet(n, {1, 2}));
  discovery.start();

  // Two DISCOVERs carrying already-known certificates: the replies must be
  // the same shared immutable object, not two copies.
  discovery.handle(1, DiscoverMsg({0, NodeSet(n, {1, 2})}));
  discovery.handle(2, DiscoverMsg({0, NodeSet(n, {1, 2})}));
  auto replies = gossip_replies(host);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0], replies[1]);

  // A certificate that adds knowledge invalidates the cached reply.
  discovery.handle(3, DiscoverMsg({3, NodeSet(n, {0})}));
  replies = gossip_replies(host);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_NE(replies[1], replies[2]);
  EXPECT_NE(cert_of(*replies[2], 3), nullptr);
}

TEST(SinkDiscoveryGossip, ConflictingCertificatesUnionMerge) {
  // A Byzantine owner may mint conflicting certificates for itself;
  // receivers merge them by union (DESIGN.md §4.1).
  const std::size_t n = 8;
  FakeHost host(0, n, 1);
  SinkDiscovery discovery(host, NodeSet(n, {1, 2}));
  discovery.start();

  discovery.handle(3, DiscoverMsg({3, NodeSet(n, {4})}));
  discovery.handle(3, DiscoverMsg({3, NodeSet(n, {5})}));
  EXPECT_TRUE(discovery.certified_graph().has_edge(3, 4));
  EXPECT_TRUE(discovery.certified_graph().has_edge(3, 5));
  auto replies = gossip_replies(host);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_NE(replies[0], replies[1]);
  const NodeSet* merged = cert_of(*replies[1], 3);
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(*merged, NodeSet(n, {4, 5}));

  // A certificate the union already covers changes nothing: the reply
  // stays shared and no admission recheck runs.
  const auto dirty_before = discovery.stats().dirty_updates;
  discovery.handle(3, DiscoverMsg({3, NodeSet(n, {4})}));
  replies = gossip_replies(host);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[2], replies[1]);
  EXPECT_EQ(discovery.stats().dirty_updates, dirty_before);
}

TEST(SinkDiscoveryGossip, CountsEveryReceivedCertificateEntry) {
  // One entry per DISCOVER and one per gossiped certificate, whether or not
  // it adds knowledge; KNOWN carries no certificate.
  const std::size_t n = 8;
  FakeHost host(0, n, 1);
  SinkDiscovery discovery(host, NodeSet(n, {1, 2}));
  discovery.start();
  discovery.handle(1, DiscoverMsg({1, NodeSet(n, {0, 2})}));
  EXPECT_EQ(discovery.stats().cert_entries_received, 1u);
  const CertGossipMsg batch({{1, NodeSet(n, {0, 2})},
                             {2, NodeSet(n, {0, 1})},
                             {3, NodeSet(n, {4})}});
  discovery.handle(2, batch);
  discovery.handle(2, batch);
  EXPECT_EQ(discovery.stats().cert_entries_received, 7u);
  discovery.handle(2, KnownMsg(NodeSet(n, {0, 1, 2})));
  EXPECT_EQ(discovery.stats().cert_entries_received, 7u);
}

/// Recompute-from-scratch reference for the candidate set: self, own PD,
/// plus every reachable node with f+1 vertex-disjoint certified paths.
NodeSet reference_candidate(const SinkDiscovery& d, ProcessId self,
                            const NodeSet& pd, std::size_t f) {
  const auto& g = d.certified_graph();
  const NodeSet reachable = g.reachable_from(self);
  NodeSet expected = pd;
  expected.add(self);
  for (ProcessId j : reachable) {
    if (j == self || pd.contains(j)) continue;
    if (graph::has_k_vertex_disjoint_paths(g, self, j, f + 1, reachable)) {
      expected.add(j);
    }
  }
  return expected;
}

class SinkDiscoveryEquivalenceTest
    : public ::testing::TestWithParam<std::size_t> {};

// f = 1 exercises the kept dominator tree, f = 2 the max-flow path with
// cut-certificate caching; both must agree with the from-scratch reference
// after every delivery, of one certificate or of a gossip batch. The
// incrementally kept reachable set must match a fresh search too: after
// every delivery each node reachable from self has been queried exactly
// once, and no other.
INSTANTIATE_TEST_SUITE_P(FaultThresholds, SinkDiscoveryEquivalenceTest,
                         ::testing::Values(1, 2));

TEST_P(SinkDiscoveryEquivalenceTest, MatchesFromScratchRecomputeOnRandomFeeds) {
  const std::size_t f = GetParam();
  Rng rng(2024);
  for (int trial = 0; trial < 12; ++trial) {
    graph::KosrGenParams params;
    params.sink_size = 8;
    params.non_sink_size = 8;
    params.k = 2 * f + 1;
    params.seed = 100 + static_cast<std::uint64_t>(trial);
    const auto g = graph::random_kosr_graph(params);
    const std::size_t n = g.node_count();

    // Observe from a non-sink process (it reaches both sink and non-sink
    // nodes, so negative verdicts matter) and from a sink member.
    for (const ProcessId self : {static_cast<ProcessId>(n - 1), ProcessId{0}}) {
      FakeHost host(self, n, f);
      SinkDiscovery discovery(host, g.pd_of(self));
      discovery.start();

      // Feed single-owner certificates in random order, interleaved with
      // updates, and compare against the reference after every step.
      const std::vector<ProcessId> order = shuffled(n, self, rng);
      for (ProcessId owner : order) {
        discovery.handle(owner, CertGossipMsg({{owner, g.pd_of(owner)}}));
        ASSERT_EQ(discovery.candidate_set(),
                  reference_candidate(discovery, self, g.pd_of(self), f))
            << "trial=" << trial << " self=" << self << " owner=" << owner;
        ASSERT_EQ(first_misqueried(host, discovery), kInvalidProcess)
            << "trial=" << trial << " self=" << self << " owner=" << owner;
      }
      // The incremental run must not have paid more flow evaluations than
      // the recompute-everything baseline.
      const auto& stats = discovery.stats();
      EXPECT_LE(stats.flow_evals, stats.flow_evals_baseline);

      // Replaying every certificate is pure noise: no new edges, no new
      // evaluations.
      const auto evals_before = stats.flow_evals;
      const auto dirty_before = stats.dirty_updates;
      for (ProcessId owner : order) {
        discovery.handle(owner, CertGossipMsg({{owner, g.pd_of(owner)}}));
      }
      EXPECT_EQ(discovery.stats().flow_evals, evals_before);
      EXPECT_EQ(discovery.stats().dirty_updates, dirty_before);
    }
  }
}

TEST_P(SinkDiscoveryEquivalenceTest,
       MatchesFromScratchRecomputeOnGossipBatches) {
  // Real replies are multi-owner CertGossipMsg batches in ascending owner
  // order that repeat certificates sent before, so one delivery can add
  // edges out of several owners, some not yet reachable, before the next
  // admission recheck.
  const std::size_t f = GetParam();
  Rng rng(4242);
  for (int trial = 0; trial < 12; ++trial) {
    graph::KosrGenParams params;
    params.sink_size = 8;
    params.non_sink_size = 8;
    params.k = 2 * f + 1;
    params.seed = 300 + static_cast<std::uint64_t>(trial);
    const auto g = graph::random_kosr_graph(params);
    const std::size_t n = g.node_count();
    for (const ProcessId self : {static_cast<ProcessId>(n - 1), ProcessId{0}}) {
      FakeHost host(self, n, f);
      SinkDiscovery discovery(host, g.pd_of(self));
      discovery.start();
      const std::vector<ProcessId> order = shuffled(n, self, rng);
      std::size_t next = 0;
      while (next < order.size()) {
        NodeSet owners(n);
        const std::size_t fresh = 1 + rng.uniform(5);
        for (std::size_t i = 0; i < fresh && next < order.size(); ++i) {
          owners.add(order[next++]);
        }
        for (std::size_t i = 0; i < next; ++i) {
          if (rng.chance(0.3)) owners.add(order[i]);  // already delivered
        }
        std::vector<PdCertificate> certs;
        for (ProcessId owner : owners) certs.push_back({owner, g.pd_of(owner)});
        const ProcessId from = order[rng.uniform(next)];
        discovery.handle(from, CertGossipMsg(std::move(certs)));
        ASSERT_EQ(discovery.candidate_set(),
                  reference_candidate(discovery, self, g.pd_of(self), f))
            << "trial=" << trial << " self=" << self << " next=" << next;
        ASSERT_EQ(first_misqueried(host, discovery), kInvalidProcess)
            << "trial=" << trial << " self=" << self << " next=" << next;
      }
    }
  }
}

TEST(SinkDiscoveryIncremental, CutCertificateInvalidatedByEdgeFromEarlierEpoch) {
  // A max-flow rejection caches its vertex cut, and the cut must be voided
  // by the first edge that crosses it, even when that edge completes no
  // path yet. f = 2, so node 3 needs three disjoint paths from 0. It is
  // first rejected with source side {0, 5} and separator {1, 2}: its three
  // in-edges come from 1, 2 and 4, and 4 hangs off 1. The bypass 0→5→6→3
  // is then built in two deliveries: 5→6 crosses the cut (nothing reaches
  // 3 through it yet) and 6→3 completes it. 6 is outside the first cut's
  // source side, so a cut that survived the 5→6 delivery would keep 3
  // rejected forever.
  const std::size_t n = 10;
  const NodeSet pd(n, {1, 2, 5});
  FakeHost host(0, n, 2);
  SinkDiscovery discovery(host, pd);
  discovery.start();
  discovery.handle(1, DiscoverMsg({1, NodeSet(n, {3, 4})}));
  discovery.handle(2, DiscoverMsg({2, NodeSet(n, {3})}));
  EXPECT_EQ(discovery.stats().flow_evals, 0u)
      << "two in-edges are below the degree bound of three";
  discovery.handle(4, DiscoverMsg({4, NodeSet(n, {3})}));
  EXPECT_EQ(discovery.stats().flow_evals, 1u);
  EXPECT_EQ(discovery.candidate_set(), NodeSet(n, {0, 1, 2, 5}))
      << "3 must be rejected while {1, 2} separates it";

  // An edge outside the source side leaves the cut standing: 3 is skipped
  // without a max-flow.
  discovery.handle(7, DiscoverMsg({7, NodeSet(n, {8})}));
  EXPECT_EQ(discovery.stats().flow_evals, 1u);
  EXPECT_EQ(discovery.stats().cut_skips, 1u);

  discovery.handle(5, DiscoverMsg({5, NodeSet(n, {6})}));
  EXPECT_EQ(discovery.stats().flow_evals, 2u) << "5→6 crosses the cut";
  EXPECT_FALSE(discovery.candidate_set().contains(3));
  discovery.handle(6, DiscoverMsg({6, NodeSet(n, {3})}));
  // Ground truth now has 0→1→3, 0→2→3 and 0→5→6→3.
  EXPECT_TRUE(discovery.candidate_set().contains(3));
  EXPECT_EQ(discovery.candidate_set(),
            reference_candidate(discovery, 0, pd, 2));
}

TEST(SinkDiscoveryIncremental, HeapBackedUniverseMatchesReference) {
  // 300 processes put every NodeSet of the run past the inline bound, so the
  // discovery's tables, its reachable set and the dominator and flow inputs
  // all live on the heap-backed path (the one sanitizer builds must see).
  graph::KosrGenParams params;
  params.sink_size = 150;
  params.non_sink_size = 150;
  params.k = 3;
  params.seed = 7;
  const auto g = graph::random_kosr_graph(params);
  const std::size_t n = g.node_count();
  ASSERT_GT(n, NodeSet::kInlineUniverse);
  Rng rng(99);
  for (const ProcessId self : {ProcessId{0}, static_cast<ProcessId>(n - 1)}) {
    FakeHost host(self, n, 1);
    SinkDiscovery discovery(host, g.pd_of(self));
    discovery.start();
    for (ProcessId owner : shuffled(n, self, rng)) {
      discovery.handle(owner, CertGossipMsg({{owner, g.pd_of(owner)}}));
    }
    EXPECT_EQ(discovery.candidate_set(),
              reference_candidate(discovery, self, g.pd_of(self), 1))
        << "self=" << self;
    EXPECT_EQ(first_misqueried(host, discovery), kInvalidProcess)
        << "self=" << self;
  }
}

TEST(SinkDiscoveryIncremental, MemoizedVerdictsSkipUnaffectedNodes) {
  // Line graph into a far island: 0 -> 1 -> 2 -> 3 -> 4 with f = 1, so
  // nothing beyond PD is ever admitted (a single path is not 2 disjoint
  // paths). The far certificates cost no max-flow and no dominator pass:
  // every evaluation the recompute-everything baseline would run is pruned
  // by the degree bound, since self has a single out-edge.
  const std::size_t n = 6;
  FakeHost host(0, n, 1);
  SinkDiscovery discovery(host, NodeSet(n, {1}));
  discovery.start();
  discovery.handle(1, DiscoverMsg({1, NodeSet(n, {2})}));
  discovery.handle(2, DiscoverMsg({2, NodeSet(n, {3})}));
  const auto baseline = discovery.stats().flow_evals_baseline;
  EXPECT_EQ(baseline, 3u);  // {2}, then {2, 3}
  // Node 3's certificate about 4 puts 2, 3 and 4 up for evaluation again.
  discovery.handle(3, DiscoverMsg({3, NodeSet(n, {4})}));
  const auto& stats = discovery.stats();
  EXPECT_EQ(stats.flow_evals_baseline, baseline + 3);
  EXPECT_EQ(stats.degree_prunes, stats.flow_evals_baseline);
  EXPECT_EQ(stats.flow_evals, 0u);
  EXPECT_EQ(stats.domtree_passes, 0u);
  EXPECT_EQ(stats.cut_skips, 0u);
  EXPECT_EQ(discovery.candidate_set(), NodeSet(n, {0, 1}));
}

TEST(SinkDiscoveryAllocations, CertifiedRowsAllocateAtMostOncePerRow) {
  // A certified graph takes one certificate row per add_edges call: its
  // successor vector grows once, and the predecessor rows the edges land
  // in are NodeSets inside the graph, so they allocate nothing.
  graph::KosrGenParams params;
  params.sink_size = 32;
  params.non_sink_size = 32;
  params.k = 3;
  params.seed = 5;
  const auto g = graph::random_kosr_graph(params);
  const std::size_t n = g.node_count();
  std::vector<NodeSet> rows;
  for (ProcessId u = 0; u < n; ++u) rows.push_back(g.successor_set(u));
  graph::Digraph certified(n);
  for (ProcessId u = 0; u < n; ++u) {
    ASSERT_GE(rows[u].count(), 3u);
    EXPECT_EQ(allocs_during([&] { certified.add_edges(u, rows[u]); }), 1u)
        << "row " << u;
  }
  EXPECT_EQ(certified.edge_count(), g.edge_count());
  // A row that adds nothing allocates nothing.
  EXPECT_EQ(allocs_during([&] { certified.add_edges(0, rows[0]); }), 0u);
}

TEST(SinkDiscoveryAllocations, KnownGossipBatchAllocatesNothing) {
  // Every gossip reply repeats the sender's whole table, so most entries a
  // process receives are ones it holds already; such a batch must cost no
  // heap block at all.
  graph::KosrGenParams params;
  params.sink_size = 24;
  params.non_sink_size = 24;
  params.k = 3;
  params.seed = 11;
  const auto g = graph::random_kosr_graph(params);
  const std::size_t n = g.node_count();
  for (const std::size_t f : {std::size_t{1}, std::size_t{2}}) {
    FakeHost host(0, n, f);
    SinkDiscovery discovery(host, g.pd_of(0));
    discovery.start();
    std::vector<PdCertificate> certs;
    for (ProcessId owner = 0; owner < n; ++owner) {
      certs.push_back({owner, g.pd_of(owner)});
    }
    const CertGossipMsg batch(std::move(certs));
    discovery.handle(1, batch);
    const std::size_t sent = host.sent.size();
    const auto dirty = discovery.stats().dirty_updates;
    EXPECT_EQ(allocs_during([&] { discovery.handle(1, batch); }), 0u)
        << "f=" << f;
    EXPECT_EQ(host.sent.size(), sent);
    EXPECT_EQ(discovery.stats().dirty_updates, dirty);
  }
}

/// A process that runs discovery and nothing else, as E11's rows do.
class DiscoveryOnlyNode : public sim::ComposedNode {
 public:
  DiscoveryOnlyNode(NodeSet pd, std::size_t f)
      : ComposedNode(f), discovery(*this, std::move(pd)) {}
  void start() override { discovery.start(); }
  void on_message(ProcessId from, const sim::MessagePtr& msg) override {
    discovery.handle(from, *msg);
  }
  SinkDiscovery discovery;
};

TEST(SinkDiscoveryPinned, MaxFlowPathCountersAtFaultThresholdTwo) {
  // E11's gated rows are all f = 1, where the dominator tree decides every
  // pending node and flow_evals and cut_skips stay 0. This f = 2 run goes
  // through the degree bounds, the max-flow engine and the cut cache, with
  // the faulty processes silent, until every correct sink member finishes;
  // the summed counters are pinned exactly, so a change to the admission
  // path that keeps verdicts but moves work shows here.
  core::LargeScaleParams params;
  params.n = 64;
  params.f = 2;
  params.seed = 1;
  const core::ScenarioConfig cfg = core::large_scale_scenario(params);
  const NodeSet sink = graph::unique_sink_component(cfg.graph);
  const NodeSet correct = cfg.faulty.complement();
  ASSERT_FALSE(cfg.faulty.empty());

  sim::Simulation sim(params.n, cfg.net);
  std::vector<DiscoveryOnlyNode*> nodes(params.n, nullptr);
  for (ProcessId i = 0; i < params.n; ++i) {
    if (cfg.faulty.contains(i)) {
      sim.emplace_process<core::SilentNode>(i);
    } else {
      nodes[i] = &sim.emplace_process<DiscoveryOnlyNode>(i, cfg.graph.pd_of(i),
                                                         params.f);
    }
  }
  sim.start();
  const NodeSet correct_sink = sink & correct;
  ASSERT_TRUE(sim.run_until(
      [&] {
        for (ProcessId i : correct_sink) {
          if (!nodes[i]->discovery.finished()) return false;
        }
        return true;
      },
      cfg.deadline));

  DiscoveryStats sum;
  for (ProcessId i : correct) {
    const DiscoveryStats& s = nodes[i]->discovery.stats();
    sum.flow_evals += s.flow_evals;
    sum.flow_evals_baseline += s.flow_evals_baseline;
    sum.degree_prunes += s.degree_prunes;
    sum.cut_skips += s.cut_skips;
    sum.domtree_passes += s.domtree_passes;
    sum.dirty_updates += s.dirty_updates;
  }
  EXPECT_EQ(sum.flow_evals, 2'521u);
  EXPECT_EQ(sum.flow_evals_baseline, 15'099u);
  EXPECT_EQ(sum.degree_prunes, 10'533u);
  EXPECT_EQ(sum.cut_skips, 2'045u);
  EXPECT_EQ(sum.domtree_passes, 0u);
  EXPECT_EQ(sum.dirty_updates, 1'650u);
  for (ProcessId i : correct_sink) {
    EXPECT_EQ(nodes[i]->discovery.sink(), sink) << "member " << i;
  }
}

}  // namespace
}  // namespace scup::cup
