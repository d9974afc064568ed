// QuorumEngine unit suite: interning by structural equality in
// first-intern order, engine evaluation of randomized nested qsets against
// QSet's own and against the v-blocking duality, with one counted
// evaluation per call, the closure against FbqsSystem's (the paper's
// Algorithm 1) under random rebinds, on random nested qsets and on
// Algorithm 2's, its failed-support tier (hits, invalidation), and — at
// the ScpNode level — from-scratch equivalence of the incrementally
// maintained support views (across the view cap's drop and rebuild too)
// and their cached verdicts against the historical gather path and of the
// nomination work list against the value set recomputed from the envelope
// maps, plus the PREPARE commit-range statement invariant
// (c_n != 0 ⇒ c_n ≤ h_n).
#include "fbqs/quorum_engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "fbqs/quorum.hpp"
#include "scp/scp_node.hpp"
#include "sim/host.hpp"
#include "sinkdetector/slice_builder.hpp"

namespace scup::fbqs {
namespace {

QSet random_qset(Rng& rng, std::size_t universe, int depth) {
  std::vector<ProcessId> validators;
  const std::size_t n_validators = 1 + rng.uniform(3);
  for (std::size_t i = 0; i < n_validators; ++i) {
    validators.push_back(static_cast<ProcessId>(rng.uniform(universe)));
  }
  std::vector<QSet> inner;
  if (depth > 0) {
    const std::size_t n_inner = rng.uniform(3);  // 0..2
    for (std::size_t i = 0; i < n_inner; ++i) {
      inner.push_back(random_qset(rng, universe, depth - 1));
    }
  }
  const std::size_t elements = validators.size() + inner.size();
  const std::size_t threshold = 1 + rng.uniform(elements);
  return QSet(threshold, std::move(validators), std::move(inner));
}

NodeSet random_set(Rng& rng, std::size_t universe) {
  NodeSet s(universe);
  for (ProcessId i = 0; i < universe; ++i) {
    if (rng.uniform(2) == 0) s.add(i);
  }
  return s;
}

TEST(QuorumEngineTest, InterningIdentity) {
  QuorumEngine engine;
  const QSet a = QSet::threshold_of(2, std::vector<ProcessId>{0, 1, 2});
  const QSet b = QSet::threshold_of(2, std::vector<ProcessId>{0, 1, 2});
  const QSet c = QSet::threshold_of(3, std::vector<ProcessId>{0, 1, 2});
  const QSet nested(1, {}, {a, c});

  const QSetId ia = engine.intern(a);
  const QSetId ib = engine.intern(b);
  const QSetId ic = engine.intern(c);
  const QSetId in = engine.intern(nested);
  EXPECT_EQ(ia, ib) << "structurally equal qsets must share an id";
  EXPECT_NE(ia, ic);
  EXPECT_NE(in, ia);
  EXPECT_EQ(engine.interned_count(), 3u);
  EXPECT_EQ(engine.stats().intern_hits, 1u);
  EXPECT_TRUE(engine.qset(ia) == a);
  EXPECT_TRUE(engine.qset(in) == nested);

  // Re-interning the nested set is a hit, not a new entry.
  EXPECT_EQ(engine.intern(nested), in);
  EXPECT_EQ(engine.interned_count(), 3u);
}

// The name is kept from the engine's flattened evaluation form. Each engine
// call must answer as QSet does and cost exactly one counted evaluation,
// and blocked_by's early exit must keep the duality with satisfied_by:
// `nodes` blocks q iff its complement satisfies no slice of q.
TEST(QuorumEngineTest, FlattenedMatchesRecursiveOnRandomNestedQSets) {
  constexpr std::size_t kUniverse = 12;
  Rng rng(20260802);
  QuorumEngine engine;
  const auto expect_one_eval = [&engine](const QuorumEngineStats& before) {
    EXPECT_EQ(engine.stats().qset_evals, before.qset_evals + 1);
    EXPECT_EQ(engine.stats().qset_evals_baseline,
              before.qset_evals_baseline + 1);
  };
  for (int trial = 0; trial < 200; ++trial) {
    const QSet q = random_qset(rng, kUniverse, /*depth=*/3);
    const QSetId id = engine.intern(q);
    for (int probe = 0; probe < 10; ++probe) {
      const NodeSet nodes = random_set(rng, kUniverse);
      SCOPED_TRACE("trial=" + std::to_string(trial) + " qset=" +
                   q.to_string() + " nodes=" + nodes.to_string());
      QuorumEngineStats before = engine.stats();
      EXPECT_EQ(engine.satisfied_by(id, nodes), q.satisfied_by(nodes));
      expect_one_eval(before);
      before = engine.stats();
      const bool blocked = engine.blocked_by(id, nodes);
      expect_one_eval(before);
      EXPECT_EQ(blocked, q.blocked_by(nodes));
      EXPECT_EQ(blocked, !q.satisfied_by(nodes.complement()));
    }
  }
}

TEST(QuorumEngineTest, EmptyQSetSemantics) {
  QuorumEngine engine;
  const QSetId id = engine.intern(QSet());
  const NodeSet none(4);
  EXPECT_TRUE(engine.satisfied_by(id, none));   // vacuous slice
  EXPECT_FALSE(engine.blocked_by(id, NodeSet::full(4)));
}

/// The paper's Algorithm 1 over the engine's current binding: the
/// reference closure FbqsSystem::quorum_closure runs on the same qsets.
FbqsSystem reference_system(const QuorumEngine& engine,
                            const std::vector<QSetId>& ids) {
  FbqsSystem sys(ids.size());
  for (ProcessId i = 0; i < ids.size(); ++i) {
    if (ids[i] != kNoQSetId) sys.set_slices(i, engine.qset(ids[i]));
  }
  return sys;
}

TEST(QuorumEngineTest, ClosureMatchesReferenceOnRandomConfigurations) {
  constexpr std::size_t kUniverse = 10;
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    // Odd trials bind every process to Algorithm 2's output for a random
    // sink of at least 2f+1 ids, the qsets SCP runs; even trials bind
    // random nested qsets and leave some processes unbound.
    const bool algorithm2 = trial % 2 == 1;
    const std::size_t f = 1 + rng.uniform(2);
    NodeSet sink(kUniverse);
    while (algorithm2 && sink.count() < 2 * f + 1) {
      sink |= random_set(rng, kUniverse);
    }
    // Algorithm 2's slices for `who`; a rebind to a fresh qset flips its
    // sink membership, so it always changes the binding.
    const auto qset_for = [&](ProcessId who, bool flip) {
      if (!algorithm2) return random_qset(rng, kUniverse, 2);
      sinkdetector::GetSinkResult r;
      r.is_sink_member = sink.contains(who) != flip;
      r.sink = sink;
      return sinkdetector::build_slices(r, f);
    };
    QuorumEngine engine;
    std::vector<QSetId> ids(kUniverse, kNoQSetId);
    for (ProcessId i = 0; i < kUniverse; ++i) {
      if (!algorithm2 && rng.uniform(8) == 0) continue;  // never spoke
      ids[i] = engine.intern(qset_for(i, /*flip=*/false));
    }
    FbqsSystem reference = reference_system(engine, ids);
    for (int probe = 0; probe < 20; ++probe) {
      // A rebind, either to a fresh qset or to one that needs only `who`,
      // must stop every failed-tier entry over `who` from matching.
      if (rng.uniform(4) == 0) {
        const auto who = static_cast<ProcessId>(rng.uniform(kUniverse));
        ids[who] = engine.intern(
            rng.uniform(2) == 0
                ? qset_for(who, /*flip=*/true)
                : QSet::threshold_of(1, std::vector<ProcessId>{who}));
        reference = reference_system(engine, ids);
      }
      const NodeSet support = random_set(rng, kUniverse);
      const auto member = static_cast<ProcessId>(rng.uniform(kUniverse));
      EXPECT_EQ(engine.quorum_contains(support, member, ids),
                reference.quorum_closure(support).contains(member))
          << "trial=" << trial << " support=" << support.to_string()
          << " member=" << member;
    }
  }
}

TEST(QuorumEngineTest, ClosureMemoizationHitsAndSelfValidation) {
  // 0 needs {0, 2}, 1 and 3 need 3, 2 needs {1, 2}.
  QuorumEngine engine;
  constexpr std::size_t kN = 4;
  const QSetId needs3 =
      engine.intern(QSet::threshold_of(1, std::vector<ProcessId>{3}));
  std::vector<QSetId> ids = {
      engine.intern(QSet::threshold_of(2, std::vector<ProcessId>{0, 2})),
      needs3,
      engine.intern(QSet::threshold_of(2, std::vector<ProcessId>{1, 2})),
      needs3};

  // {0, 1, 2} passes 0's first pass, but the closure drops 1 (no 3), then
  // 2 (no 1), then 0 (no 2).
  const NodeSet failed(kN, {0, 1, 2});
  EXPECT_FALSE(engine.quorum_contains(failed, 0, ids));
  EXPECT_EQ(engine.stats().closure_runs, 1u);
  EXPECT_EQ(engine.stats().closure_cache_hits, 0u);

  // (a) A subset of a failed support fails too: served by the failed tier
  // with zero evaluations, while the baseline is charged a first pass,
  // |subset| evaluations, so savings are measurable.
  const NodeSet subset(kN, {0, 2});
  const auto evals_before = engine.stats().qset_evals;
  const auto baseline_before = engine.stats().qset_evals_baseline;
  EXPECT_FALSE(engine.quorum_contains(subset, 0, ids));
  EXPECT_EQ(engine.stats().closure_runs, 1u);
  EXPECT_EQ(engine.stats().closure_cache_hits, 1u);
  EXPECT_EQ(engine.stats().qset_evals, evals_before) << "hit must be free";
  EXPECT_EQ(engine.stats().qset_evals_baseline,
            baseline_before + subset.count());

  // (b) No tier proves TRUE: the same quorum asked twice runs the closure
  // twice (exact repeats are the caller's to cache).
  const NodeSet all = NodeSet::full(kN);
  EXPECT_TRUE(engine.quorum_contains(all, 0, ids));
  EXPECT_TRUE(engine.quorum_contains(all, 0, ids));
  EXPECT_EQ(engine.stats().closure_runs, 3u);
  EXPECT_EQ(engine.stats().closure_cache_hits, 1u);

  // (c) 2 re-announces a qset that needs only 2, so {0, 2} becomes a
  // quorum for 0. The failed entry's fingerprint covers 2's old qset id, so it
  // stops matching: the subset is recomputed, not served FALSE.
  ids[2] = engine.intern(QSet::threshold_of(1, std::vector<ProcessId>{2}));
  EXPECT_TRUE(engine.quorum_contains(subset, 0, ids));
  EXPECT_EQ(engine.stats().closure_runs, 4u);
  EXPECT_EQ(engine.stats().closure_cache_hits, 1u)
      << "stale entries must not match the changed assignment";
}

}  // namespace
}  // namespace scup::fbqs

// ---------------------------------------------------------------------------
// ScpNode-level: incremental support views and their verdicts vs the
// from-scratch gather path, verdict invalidation on envelope (qset) change,
// and the PREPARE statement invariant.
// ---------------------------------------------------------------------------
namespace scup::scp {
namespace {

class FakeHost : public sim::ProtocolHost {
 public:
  FakeHost(ProcessId self, std::size_t n) : self_(self), n_(n) {}
  ProcessId self() const override { return self_; }
  std::size_t universe() const override { return n_; }
  std::size_t fault_threshold() const override { return 1; }
  void host_send(ProcessId to, sim::MessagePtr msg) override {
    sent.emplace_back(to, std::move(msg));
  }
  void host_set_timer(int, SimTime) override {}
  std::uint64_t host_sign(std::uint64_t) const override { return 0; }
  bool host_verify(ProcessId, std::uint64_t, std::uint64_t) const override {
    return true;
  }
  void host_counter_add(sim::ProtoCounter counter,
                        std::uint64_t delta) override {
    counters[static_cast<std::size_t>(counter)] += delta;
  }

  std::vector<std::pair<ProcessId, sim::MessagePtr>> sent;
  std::array<std::uint64_t, sim::kProtoCounterCount> counters{};

 private:
  ProcessId self_;
  std::size_t n_;
};

/// Every PREPARE this host ever saw emitted must satisfy the commit-range
/// invariant: a commit vote range [c_n, h_n] is only published under a
/// confirmed-prepared bound (c_n != 0 ⇒ c_n ≤ h_n).
void expect_prepare_invariant(const FakeHost& host) {
  for (const auto& [to, msg] : host.sent) {
    const auto* env = dynamic_cast<const Envelope*>(msg.get());
    if (env == nullptr) continue;
    if (const auto* p = std::get_if<PrepareStmt>(&env->statement)) {
      EXPECT_TRUE(p->c_n == 0 || p->c_n <= p->h_n)
          << "malformed commit range [" << p->c_n << ", " << p->h_n << "]";
    }
  }
}

fbqs::QSet majority4() {
  return fbqs::QSet::threshold_of(3, std::vector<ProcessId>{0, 1, 2, 3});
}

TEST(ScpNodeEngineTest, IncrementalSupportMatchesFromScratchThroughDecision) {
  constexpr std::size_t kN = 4;
  FakeHost host(0, kN);
  ScpNode node(host, kN, majority4(), /*own_value=*/42);
  for (ProcessId p = 1; p < kN; ++p) node.add_peer(p);
  node.start();
  EXPECT_TRUE(node.support_views_consistent());

  // Peers nominate 42: node accepts, ratifies, moves to PREPARE.
  for (ProcessId p = 1; p < kN; ++p) {
    NominateStmt nom;
    nom.voted = {42};
    nom.accepted = {42};
    node.handle(p, sim::make_message<Envelope>(p, 1, majority4(),
                                               Statement{nom}));
    EXPECT_TRUE(node.support_views_consistent()) << "after nominate from " << p;
  }
  EXPECT_EQ(node.phase(), ScpNode::Phase::kPrepare);

  // Peers prepare (1, 42); then publish the commit range; then confirm.
  for (ProcessId p = 1; p < kN; ++p) {
    PrepareStmt prep;
    prep.b = Ballot{1, 42};
    prep.p = Ballot{1, 42};
    node.handle(p, sim::make_message<Envelope>(p, 2, majority4(),
                                               Statement{prep}));
    EXPECT_TRUE(node.support_views_consistent()) << "after prepare from " << p;
  }
  for (ProcessId p = 1; p < kN; ++p) {
    PrepareStmt prep;
    prep.b = Ballot{1, 42};
    prep.p = Ballot{1, 42};
    prep.c_n = 1;
    prep.h_n = 1;
    node.handle(p, sim::make_message<Envelope>(p, 3, majority4(),
                                               Statement{prep}));
    EXPECT_TRUE(node.support_views_consistent());
  }
  for (ProcessId p = 1; p < kN; ++p) {
    ConfirmStmt conf;
    conf.b = Ballot{1, 42};
    conf.p_n = 1;
    conf.c_n = 1;
    conf.h_n = 1;
    node.handle(p, sim::make_message<Envelope>(p, 4, majority4(),
                                               Statement{conf}));
    EXPECT_TRUE(node.support_views_consistent());
  }
  ASSERT_TRUE(node.decided());
  EXPECT_EQ(node.decision(), 42u);
  expect_prepare_invariant(host);

  // The cached path must have done real work and found real reuse.
  const auto& s = node.engine().stats();
  EXPECT_GT(s.closure_runs, 0u);
  EXPECT_GT(s.closure_cache_hits, 0u);
  EXPECT_GT(s.qset_evals_baseline, s.qset_evals)
      << "rescan baseline should cost more than the cached path";
  // An owned-engine node flushes its counters to the host's SimMetrics.
  EXPECT_EQ(host.counters[static_cast<std::size_t>(
                sim::ProtoCounter::kQuorumClosureRuns)],
            s.closure_runs);
  EXPECT_EQ(host.counters[static_cast<std::size_t>(
                sim::ProtoCounter::kQsetEvals)],
            s.qset_evals);
}

TEST(ScpNodeEngineTest, QsetChangeInvalidatesClosureCache) {
  constexpr std::size_t kN = 4;
  FakeHost host(0, kN);
  ScpNode node(host, kN, majority4(), 42);
  for (ProcessId p = 1; p < kN; ++p) node.add_peer(p);
  node.start();

  NominateStmt nom;
  nom.voted = {42};
  nom.accepted = {42};
  for (ProcessId p = 1; p < kN; ++p) {
    node.handle(p, sim::make_message<Envelope>(p, 1, majority4(),
                                               Statement{nom}));
  }
  const auto runs_before = node.engine().stats().closure_runs;

  // Sender 1 re-announces with a DIFFERENT qset: every cached quorum
  // verdict (on the views and in the engine's failed tier) read the old
  // assignment, so the next check must re-run even though the nominate(42)
  // views are unchanged.
  const fbqs::QSet other =
      fbqs::QSet::threshold_of(2, std::vector<ProcessId>{0, 1, 2, 3});
  NominateStmt nom2 = nom;
  nom2.voted.push_back(43);  // grow the statement so the envelope is fresh
  node.handle(1, sim::make_message<Envelope>(1, 5, other, Statement{nom2}));
  EXPECT_TRUE(node.support_views_consistent());
  EXPECT_GT(node.engine().stats().closure_runs, runs_before)
      << "qset change must invalidate the closure cache";
}

TEST(ScpNodeEngineTest, RebindDropsCachedQuorumVerdicts) {
  // Peers 1 and 2 confirm nominate(42) with 3-of-4 qsets, so the
  // nominate(42) views {0, 1, 2} cache "a quorum for 0". Sender 1 then
  // re-announces the same values for 42 under 4-of-4: no view of 42 changes
  // membership, but the closure now drops 1 and then 0, so every verdict
  // cached before the rebind is wrong and must not be served (the audit
  // recomputes each served verdict from scratch).
  constexpr std::size_t kN = 4;
  FakeHost host(0, kN);
  ScpNode node(host, kN, majority4(), 42);
  for (ProcessId p = 1; p < kN; ++p) node.add_peer(p);
  node.start();
  for (ProcessId p = 1; p <= 2; ++p) {
    node.handle(p, sim::make_message<Envelope>(
                       p, 1, majority4(),
                       Statement{NominateStmt{{42}, {42}}}));
  }
  ASSERT_TRUE(node.candidates().contains(42));
  ASSERT_TRUE(node.support_views_consistent());

  const fbqs::QSet all4 =
      fbqs::QSet::threshold_of(4, std::vector<ProcessId>{0, 1, 2, 3});
  node.handle(1, sim::make_message<Envelope>(
                     1, 2, all4, Statement{NominateStmt{{42, 43}, {42}}}));
  EXPECT_TRUE(node.support_views_consistent())
      << "a rebind must drop the quorum verdicts cached under the old qset";
}

TEST(ScpNodeEngineTest, BallotStreamRebindReopensNominationChecks) {
  // Node 0 (qset 2-of-{0,1}) hears sender 1 vote for 42 under 2-of-{1,2}:
  // the closure of the nominate(42) votes {0, 1} drops 1 and then 0, so 42
  // is not accepted and its check has nothing left to change. Sender 1's
  // PREPARE then announces 2-of-{0,1}. That rebinds sender 1 without
  // changing the membership of any nomination view, yet {0, 1} is now a
  // quorum for 0: the rebind must re-open every nomination check, so 0's
  // next NOMINATE accepts 42.
  constexpr std::size_t kN = 3;
  const fbqs::QSet q01 =
      fbqs::QSet::threshold_of(2, std::vector<ProcessId>{0, 1});
  const fbqs::QSet q12 =
      fbqs::QSet::threshold_of(2, std::vector<ProcessId>{1, 2});
  FakeHost host(0, kN);
  ScpNode node(host, kN, q01, /*own_value=*/7);
  for (ProcessId p = 1; p < kN; ++p) node.add_peer(p);
  node.start();
  const auto own_nomination = [&node] {
    return std::get<NominateStmt>(
        node.nomination_envelopes().at(0)->statement);
  };

  node.handle(1, sim::make_message<Envelope>(
                     1, 1, q12, Statement{NominateStmt{{42}, {}}}));
  ASSERT_EQ(own_nomination().voted, (std::vector<Value>{7, 42}));
  ASSERT_TRUE(own_nomination().accepted.empty());
  ASSERT_TRUE(node.nomination_worklist_consistent());

  PrepareStmt prep;
  prep.b = Ballot{1, 42};
  node.handle(1, sim::make_message<Envelope>(1, 2, q01, Statement{prep}));
  EXPECT_EQ(own_nomination().accepted, (std::vector<Value>{42}))
      << "a rebind must re-open the nomination checks it can change";
  EXPECT_TRUE(node.support_views_consistent());
  EXPECT_TRUE(node.nomination_worklist_consistent());
}

TEST(ScpNodeEngineTest, ThirdIncompatibleAcceptedPrepareIsDominated) {
  // With a 4-of-5 qset any two peers are v-blocking. Peers 1 and 2 make the
  // node accept prepared (1,103) and (1,102); peers 3 and 4 then make it
  // accept (1,101), which is below and incompatible with both. (p, p')
  // already covers everything it aborts, so handle() must return with
  // (p, p') unchanged instead of spinning in advance().
  constexpr std::size_t kN = 5;
  const fbqs::QSet q =
      fbqs::QSet::threshold_of(4, std::vector<ProcessId>{0, 1, 2, 3, 4});
  FakeHost host(0, kN);
  ScpNode node(host, kN, q, /*own_value=*/42);
  for (ProcessId p = 1; p < kN; ++p) node.add_peer(p);
  node.start();
  for (ProcessId p = 1; p <= 2; ++p) {
    PrepareStmt s;
    s.b = Ballot{1, 103};
    s.p = Ballot{1, 103};
    s.p_prime = Ballot{1, 102};
    node.handle(p, sim::make_message<Envelope>(p, 1, q, Statement{s}));
  }
  ASSERT_EQ(node.phase(), ScpNode::Phase::kPrepare);
  for (ProcessId p = 3; p <= 4; ++p) {
    PrepareStmt s;
    s.b = Ballot{1, 101};
    s.p = Ballot{1, 101};
    node.handle(p, sim::make_message<Envelope>(p, 1, q, Statement{s}));
  }
  const auto& self = node.ballot_envelopes().at(0);
  const auto& prep = std::get<PrepareStmt>(self->statement);
  EXPECT_EQ(prep.p, (Ballot{1, 103}));
  EXPECT_EQ(prep.p_prime, (Ballot{1, 102}));
  EXPECT_TRUE(node.support_views_consistent());
  EXPECT_TRUE(node.nomination_worklist_consistent());
}

TEST(ScpNodeEngineTest, SupportViewCapDropsAndRebuildsTheViews) {
  // Past ScpNode::kMaxTrackedPredicates views, the next stored statement
  // drops both support tables and each view is rebuilt on its next query.
  // Peers 1 and 2 move the node to PREPARE; peer 3 then streams PREPAREs
  // with a fresh ballot each, and every ballot it names gets views of its
  // own, so the count crosses the cap. The rebuilt tables must stay sorted
  // and match the from-scratch views.
  constexpr std::size_t kN = 5;
  const fbqs::QSet q =
      fbqs::QSet::threshold_of(4, std::vector<ProcessId>{0, 1, 2, 3, 4});
  FakeHost host(0, kN);
  ScpNode node(host, kN, q, /*own_value=*/42);
  for (ProcessId p = 1; p < kN; ++p) node.add_peer(p);
  node.start();
  for (ProcessId p = 1; p <= 2; ++p) {
    PrepareStmt s;
    s.b = Ballot{1, 103};
    s.p = Ballot{1, 103};
    node.handle(p, sim::make_message<Envelope>(p, 1, q, Statement{s}));
  }
  ASSERT_EQ(node.phase(), ScpNode::Phase::kPrepare);
  for (std::uint32_t k = 1; k <= 2'200; ++k) {
    PrepareStmt s;
    s.b = Ballot{k, 1000 + k};
    node.handle(3, sim::make_message<Envelope>(3, k, q, Statement{s}));
    if (k % 64 == 0) {
      ASSERT_TRUE(node.support_views_consistent()) << "after PREPARE " << k;
    }
  }
  EXPECT_TRUE(node.support_views_consistent());
  EXPECT_GT(node.engine().stats().support_rebuilds,
            ScpNode::kMaxTrackedPredicates);
}

TEST(ScpNodeEngineTest, MalformedNominateIsDroppedBeforeAnyStateChanges) {
  // A NOMINATE whose voted or accepted list is not strictly ascending is
  // dropped by handle() before it touches any state. It must not be stored
  // either: its high seq would make the sender's later, lower-seq NOMINATE
  // stale.
  constexpr std::size_t kN = 4;
  FakeHost host(0, kN);
  ScpNode node(host, kN, majority4(), /*own_value=*/42);
  for (ProcessId p = 1; p < kN; ++p) node.add_peer(p);
  node.start();
  const auto stored = sim::make_message<Envelope>(
      1, 5, majority4(), Statement{NominateStmt{{42, 50}, {42}}});
  node.handle(1, stored);
  ASSERT_EQ(node.nomination_envelopes().at(1), stored);
  const std::size_t emitted = node.envelopes_emitted();
  const std::size_t sent = host.sent.size();

  const std::vector<NominateStmt> malformed = {
      NominateStmt{{77, 60}, {}},       // voted unsorted
      NominateStmt{{60, 77, 77}, {}},   // voted duplicate
      NominateStmt{{60}, {77, 60}},     // accepted unsorted
      NominateStmt{{60, 77}, {77, 77}}  // accepted duplicate
  };
  std::uint64_t seq = 100;
  for (const NominateStmt& nom : malformed) {
    const auto msg =
        sim::make_message<Envelope>(1, ++seq, majority4(), Statement{nom});
    EXPECT_TRUE(node.handle(1, msg));
    EXPECT_EQ(node.nomination_envelopes().at(1), stored) << "seq=" << seq;
    EXPECT_EQ(node.envelopes_emitted(), emitted) << "seq=" << seq;
    EXPECT_EQ(host.sent.size(), sent) << "seq=" << seq;
    EXPECT_TRUE(node.support_views_consistent()) << "seq=" << seq;
    EXPECT_TRUE(node.nomination_worklist_consistent()) << "seq=" << seq;
  }

  // A well-formed NOMINATE with a seq below every dropped one is stored,
  // and its new values are echoed.
  const auto later = sim::make_message<Envelope>(
      1, 6, majority4(), Statement{NominateStmt{{42, 50, 60}, {42}}});
  node.handle(1, later);
  EXPECT_EQ(node.nomination_envelopes().at(1), later);
  EXPECT_GT(node.envelopes_emitted(), emitted);
  EXPECT_TRUE(node.support_views_consistent());
  EXPECT_TRUE(node.nomination_worklist_consistent());
}

TEST(ScpNodeEngineTest, StaleAndMalformedNominatesLeaveViewsAndWorkList) {
  // handle() drops a stale envelope on its sequence check, before it walks a
  // NOMINATE's lists, and a fresh malformed NOMINATE right after that check;
  // a sender outside the universe goes before either. None of them may touch
  // a support view or the nomination work list. Node `hit` gets those
  // deliveries and `twin` does not; both then handle the same well-formed
  // NOMINATE, and must agree on every stored statement, every emission and
  // every engine counter (a view touched or a value listed would move
  // support updates, rebuilds or verdict counts).
  constexpr std::size_t kN = 4;
  FakeHost hit_host(0, kN);
  FakeHost twin_host(0, kN);
  ScpNode hit(hit_host, kN, majority4(), /*own_value=*/42);
  ScpNode twin(twin_host, kN, majority4(), /*own_value=*/42);
  const auto stored = sim::make_message<Envelope>(
      1, 5, majority4(), Statement{NominateStmt{{42, 50}, {42}}});
  for (ScpNode* node : {&hit, &twin}) {
    for (ProcessId p = 1; p < kN; ++p) node->add_peer(p);
    node->start();
    node->handle(1, stored);
  }

  const auto expect_same = [&](const char* when) {
    SCOPED_TRACE(when);
    EXPECT_EQ(hit.engine().stats(), twin.engine().stats());
    EXPECT_EQ(hit.envelopes_emitted(), twin.envelopes_emitted());
    EXPECT_EQ(hit_host.sent.size(), twin_host.sent.size());
    EXPECT_EQ(hit.candidates().values(), twin.candidates().values());
    ASSERT_EQ(hit.nomination_envelopes().size(),
              twin.nomination_envelopes().size());
    for (ProcessId p = 0; p < kN; ++p) {
      const auto& a = hit.nomination_envelopes()[p];
      const auto& b = twin.nomination_envelopes()[p];
      ASSERT_EQ(a == nullptr, b == nullptr) << "sender " << p;
      if (a == nullptr) continue;
      EXPECT_EQ(a->seq, b->seq) << "sender " << p;
      const auto& na = std::get<NominateStmt>(a->statement);
      const auto& nb = std::get<NominateStmt>(b->statement);
      EXPECT_EQ(na.voted, nb.voted) << "sender " << p;
      EXPECT_EQ(na.accepted, nb.accepted) << "sender " << p;
    }
    EXPECT_TRUE(hit.support_views_consistent());
    EXPECT_TRUE(hit.nomination_worklist_consistent());
  };

  const auto nominate = [](ProcessId sender, std::uint64_t seq,
                           NominateStmt nom) {
    return sim::make_message<Envelope>(sender, seq, majority4(),
                                       Statement{std::move(nom)});
  };
  // Stale (seq not above the stored 5) and unordered.
  EXPECT_TRUE(hit.handle(1, nominate(1, 5, {{77, 60}, {}})));
  EXPECT_TRUE(hit.handle(1, nominate(1, 3, {{60}, {77, 60}})));
  // Fresh and malformed.
  EXPECT_TRUE(hit.handle(1, nominate(1, 9, {{77, 60}, {}})));
  EXPECT_TRUE(hit.handle(1, nominate(1, 10, {{60, 77}, {77, 77}})));
  // A sender with no slot.
  EXPECT_TRUE(hit.handle(kN, nominate(kN, 1, {{77}, {}})));
  EXPECT_EQ(hit.nomination_envelopes().at(1), stored);
  expect_same("after the dropped deliveries");

  // The next well-formed NOMINATE names 60 and 77: had either been listed
  // or echoed already, the two nodes would now differ.
  const auto next = nominate(1, 6, {{42, 50, 60, 77}, {42}});
  EXPECT_TRUE(hit.handle(1, next));
  EXPECT_TRUE(twin.handle(1, next));
  EXPECT_EQ(hit.nomination_envelopes().at(1), next);
  expect_same("after the next NOMINATE");
}

/// A random statement of either stream over values 100..103 (ballot
/// counters 1..3), for the envelope fuzz below.
Statement random_statement(Rng& rng) {
  switch (rng.uniform(4)) {
    case 0: {
      // Drawn as sets, sent as the strictly ascending lists handle() needs.
      std::set<Value> voted;
      std::set<Value> accepted;
      const std::size_t k = 1 + rng.uniform(3);
      for (std::size_t i = 0; i < k; ++i) {
        const Value v = 100 + rng.uniform(4);
        if (rng.uniform(2) == 0) voted.insert(v); else accepted.insert(v);
      }
      return NominateStmt{{voted.begin(), voted.end()},
                          {accepted.begin(), accepted.end()}};
    }
    case 1: {
      PrepareStmt s;
      s.b = Ballot{1 + static_cast<std::uint32_t>(rng.uniform(3)),
                   100 + rng.uniform(4)};
      if (rng.uniform(2) == 0) s.p = s.b;
      if (rng.uniform(3) == 0) {
        s.c_n = 1;
        s.h_n = s.b.n;
      }
      return s;
    }
    case 2: {
      ConfirmStmt s;
      s.b = Ballot{1 + static_cast<std::uint32_t>(rng.uniform(3)),
                   100 + rng.uniform(4)};
      s.p_n = s.b.n;
      s.c_n = 1;
      s.h_n = s.b.n;
      return s;
    }
    default: {
      ExternalizeStmt s;
      s.commit = Ballot{1, 100 + rng.uniform(4)};
      s.h_n = 1 + static_cast<std::uint32_t>(rng.uniform(2));
      return s;
    }
  }
}

/// One sender's successive NOMINATEs around value `v`: it votes v, moves v
/// from voted to accepted, drops v, then names it again. Each step changes
/// the nomination views of v, so the diff update must add and remove.
std::vector<NominateStmt> churn_nominations(Value v) {
  constexpr Value kOther = 101;
  return {NominateStmt{{v}, {}}, NominateStmt{{}, {v}},
          NominateStmt{{kOther}, {}}, NominateStmt{{kOther, v}, {v}}};
}

TEST(ScpNodeEngineTest, RandomizedEnvelopeFuzzKeepsViewsConsistent) {
  constexpr std::size_t kN = 6;
  const fbqs::QSet qa =
      fbqs::QSet::threshold_of(4, std::vector<ProcessId>{0, 1, 2, 3, 4, 5});
  const fbqs::QSet qb =
      fbqs::QSet::threshold_of(3, std::vector<ProcessId>{0, 1, 2, 3, 4, 5});

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    FakeHost host(0, kN);
    ScpNode node(host, kN, qa, 100 + seed);
    for (ProcessId p = 1; p < kN; ++p) node.add_peer(p);
    std::vector<std::uint64_t> seq(kN, 0);
    const auto check = [&node, seed](const char* phase, int step) {
      ASSERT_TRUE(node.support_views_consistent())
          << "seed=" << seed << " " << phase << " step=" << step;
      ASSERT_TRUE(node.nomination_worklist_consistent())
          << "seed=" << seed << " " << phase << " step=" << step;
    };

    // Buffered before start(): random envelopes of both streams, and a
    // Byzantine sender whose later NOMINATE drops a value nobody else ever
    // names. That value stays on the work list with no supporter — the
    // one input where the list holds a value outside the set it stands for.
    for (int step = 0; step < 12; ++step) {
      const auto p = static_cast<ProcessId>(1 + rng.uniform(kN - 1));
      node.handle(p, sim::make_message<Envelope>(p, ++seq[p], qa,
                                                 random_statement(rng)));
      ASSERT_NO_FATAL_FAILURE(check("pre-start", step));
    }
    constexpr Value kDropped = 200;
    NominateStmt wide;
    wide.voted = {100, kDropped};
    wide.accepted = {kDropped};
    node.handle(1, sim::make_message<Envelope>(1, ++seq[1], qa,
                                               Statement{wide}));
    ASSERT_NO_FATAL_FAILURE(check("pre-start wide", 0));
    NominateStmt narrow;
    narrow.voted = {100};
    node.handle(1, sim::make_message<Envelope>(1, ++seq[1], qa,
                                               Statement{narrow}));
    ASSERT_NO_FATAL_FAILURE(check("pre-start narrow", 0));

    // Sender 2 churns a value nobody else names, before and after start().
    // The first churn step after start() names a value its buffered
    // NOMINATE already named, so only the one-time full walk echoes it.
    constexpr Value kChurned = 300;
    const auto churn = [&](const char* phase) {
      for (const NominateStmt& nom : churn_nominations(kChurned)) {
        node.handle(2, sim::make_message<Envelope>(2, ++seq[2], qa,
                                                   Statement{nom}));
        ASSERT_NO_FATAL_FAILURE(check(phase, 0));
      }
    };
    ASSERT_NO_FATAL_FAILURE(churn("pre-start churn"));

    node.start();
    ASSERT_NO_FATAL_FAILURE(check("start", 0));
    ASSERT_NO_FATAL_FAILURE(churn("churn"));
    for (int step = 0; step < 120; ++step) {
      const auto p = static_cast<ProcessId>(1 + rng.uniform(kN - 1));
      const fbqs::QSet& q = rng.uniform(4) == 0 ? qb : qa;
      node.handle(p, sim::make_message<Envelope>(p, ++seq[p], q,
                                                 random_statement(rng)));
      ASSERT_NO_FATAL_FAILURE(check("run", step));
    }
    EXPECT_FALSE(node.candidates().contains(kDropped));
    expect_prepare_invariant(host);
  }
}

}  // namespace
}  // namespace scup::scp
