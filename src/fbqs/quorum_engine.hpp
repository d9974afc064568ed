// QuorumEngine — the shared evaluation layer for federated voting.
//
// Production SCP implementations do not re-walk quorum-set trees on every
// federated-voting check; they intern quorum sets once (replicas
// overwhelmingly share identical configurations) and avoid repeating the
// expensive transitive checks. This engine provides the same three services
// to every SCP slot of a process:
//
//  1. QSet interning: structurally identical QSets get one QSetId, in
//     first-intern order; "did this sender's qset change?" becomes an id
//     compare, and a LedgerMultiplexer running hundreds of slots stores
//     each distinct qset once instead of once per (slot, sender). The list
//     is scanned linearly: it holds a few qsets per honest replica, and at
//     most ScpNode::kMaxQsetRebinds + 1 per rotating sender and slot.
//  2. Evaluation on the interned QSet itself: satisfied_by / blocked_by
//     run QSet::satisfied_by / QSet::blocked_by on the stored copy, as
//     stellar-core's LocalNode checks slices and v-blocking sets on the
//     quorum set it stores. Both stop once the verdict is settled. Their
//     recursion is as deep as the qset's nesting: Algorithm-2 qsets are
//     flat, and decoded frames are capped at scp::kWireMaxQsetDepth.
//  3. Algorithm-1 closure over one monotone tier: quorum_contains() runs
//     the greatest-fixpoint member-removal loop at qset-group granularity,
//     and keeps a few failed supports (FALSE for every subset), engine-wide
//     and shared by every slot of a replica. Repeats of one unchanged
//     question never get here: each ScpNode support view caches its own
//     verdicts and reports served ones through count_served(), one at a
//     time or, for a check ScpNode knows would be served whole, in one
//     batch.
//
// All work is counted in QuorumEngineStats, E11-style: `qset_evals` is what
// we actually paid, `qset_evals_baseline` is what the rescan-everything
// baseline would have paid for the same checks (a cached or tier verdict
// charges the baseline only: a closure at least its first pass, |support|
// evaluations; a v-blocking check its one evaluation).
#pragma once

#include <cstdint>
#include <vector>

#include "common/node_set.hpp"
#include "fbqs/qset.hpp"

namespace scup::fbqs {

/// Dense id of an interned QSet within one QuorumEngine.
using QSetId = std::uint32_t;
inline constexpr QSetId kNoQSetId = 0xffff'ffffu;

struct QuorumEngineStats {
  /// QSet evaluations actually run (satisfied_by + blocked_by).
  std::uint64_t qset_evals = 0;
  /// Evaluations the recompute-every-check baseline would have run.
  std::uint64_t qset_evals_baseline = 0;
  /// Algorithm-1 closures executed (cache misses).
  std::uint64_t closure_runs = 0;
  /// Closure verdicts served without a run: from the failed-support tier,
  /// or from a caller's cached verdict (count_served).
  std::uint64_t closure_cache_hits = 0;
  /// intern() calls resolved to an already-interned id.
  std::uint64_t intern_hits = 0;
  /// Incremental support-view maintenance (bumped by ScpNode; kept here so
  /// a shared engine aggregates them across slots).
  std::uint64_t support_updates = 0;
  std::uint64_t support_rebuilds = 0;

  bool operator==(const QuorumEngineStats&) const = default;
};

/// Verdicts a caller served from its own cache, as the engine's counters
/// charge them: a quorum_contains() verdict is a closure cache hit and
/// charges the baseline a first pass, |support| evaluations, as a tier hit
/// does; a blocked_by() verdict charges the baseline's one evaluation per
/// check.
struct ServedVerdicts {
  std::uint64_t closure_hits = 0;
  std::uint64_t baseline_evals = 0;

  ServedVerdicts() = default;
  /// One verdict on `support`: a quorum_contains() one if `quorum`, else a
  /// blocked_by() one.
  ServedVerdicts(const NodeSet& support, bool quorum)
      : closure_hits(quorum ? 1 : 0),
        baseline_evals(quorum ? support.count() : 1) {}
  ServedVerdicts& operator+=(const ServedVerdicts& other) {
    closure_hits += other.closure_hits;
    baseline_evals += other.baseline_evals;
    return *this;
  }
  bool operator==(const ServedVerdicts&) const = default;
};

class QuorumEngine {
 public:
  QuorumEngine() = default;

  /// Returns the id of the first interned QSet structurally equal to `q`
  /// (one QSet::operator== per interned qset), otherwise stores a copy
  /// under the next id.
  QSetId intern(const QSet& q);

  const QSet& qset(QSetId id) const { return interned_[id]; }
  std::size_t interned_count() const { return interned_.size(); }

  /// QSet::satisfied_by / QSet::blocked_by on the interned qset `id`.
  /// Each call counts one qset_eval (and one baseline eval: the rescan
  /// baseline ran exactly one such evaluation per check too). ScpNode's
  /// v-blocking checks call blocked_by directly; quorum checks go through
  /// quorum_contains.
  bool satisfied_by(QSetId id, const NodeSet& nodes);
  bool blocked_by(QSetId id, const NodeSet& nodes);

  /// Algorithm-1 closure membership: starting from `support`, repeatedly
  /// removes members whose qset (qset_ids[member]; kNoQSetId members are
  /// removed) is not satisfied by the surviving set, and reports whether
  /// `member` survives the greatest fixpoint.
  ///
  /// A verdict for support S depends only on (member, S, qset id of each
  /// member of S). One bounded monotone tier, engine-wide, answers without
  /// a run: failed supports, sets whose closure dropped `member`
  /// (closure(S') ⊆ closure(S) for S' ⊆ S — FALSE for subsets, with zero
  /// evaluations). Each entry carries a fingerprint of its own members'
  /// qset ids and only matches under the caller's current assignment, so a
  /// sender that rebinds its qset simply stops matching old entries.
  /// Otherwise a first-pass reject (member's own qset unsatisfied by S)
  /// answers FALSE at one evaluation, and only then does the closure run.
  /// Exact repeats are the caller's to cache (ScpNode's support views).
  bool quorum_contains(const NodeSet& support, ProcessId member,
                       const std::vector<QSetId>& qset_ids);

  /// Accounts verdicts the caller served from its own cache instead of
  /// asking again. Nothing is evaluated.
  void count_served(const ServedVerdicts& served);

  const QuorumEngineStats& stats() const { return stats_; }
  void count_support_update() { ++stats_.support_updates; }
  void count_support_rebuild() { ++stats_.support_rebuilds; }

 private:
  // Raw evaluations: count one qset_eval, no baseline.
  bool eval_satisfied(QSetId id, const NodeSet& nodes);
  bool eval_blocked(QSetId id, const NodeSet& nodes);

  /// Order-independent fingerprint of (member, qset id of every id in
  /// `set`) — everything a closure verdict for `set` depends on besides
  /// the set itself.
  static std::uint64_t assignment_fp(const NodeSet& set, ProcessId member,
                                     const std::vector<QSetId>& qset_ids);

  std::vector<QSet> interned_;

  std::vector<QSetId> qid_scratch_;  // distinct ids per closure pass

  // ---- failed-support tier (engine-wide, self-validating entries) ----
  struct MonotoneEntry {
    NodeSet set;
    std::uint64_t fp = 0;  // assignment_fp of `set`'s members
    ProcessId member = kInvalidProcess;
  };
  static constexpr std::size_t kMaxMonotone = 16;
  std::vector<MonotoneEntry> failed_supports_;  // keep largest
  std::size_t failed_rr_ = 0;
  /// Bounded insert: replace an entry for the same member that `entry`'s
  /// set contains, append under the bound, else overwrite round-robin.
  void insert_failed(MonotoneEntry entry);

  QuorumEngineStats stats_;
};

}  // namespace scup::fbqs
