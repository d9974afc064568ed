// QuorumEngine — the shared evaluation layer for federated voting.
//
// Production SCP implementations do not re-walk quorum-set trees on every
// federated-voting check; they intern quorum sets once (replicas
// overwhelmingly share identical configurations) and avoid repeating the
// expensive transitive checks. This engine provides the same three services
// to every SCP slot of a process:
//
//  1. Hash-consed QSet interning: structurally identical QSets get one
//     QSetId; "did this sender's qset change?" becomes an id compare, and a
//     LedgerMultiplexer running hundreds of slots stores each distinct qset
//     once instead of once per (slot, sender).
//  2. A flattened, non-recursive evaluation form: each interned QSet is
//     compiled into a post-order array of threshold nodes (children before
//     parents), so satisfied_by / blocked_by are two tight loops over
//     contiguous memory — no pointer chasing, no recursion, no risk from
//     adversarially deep nesting at evaluation time.
//  3. Algorithm-1 closure over one monotone tier: quorum_contains() runs
//     the greatest-fixpoint member-removal loop at qset-group granularity,
//     and keeps a few failed supports (FALSE for every subset), engine-wide
//     and shared by every slot of a replica. Repeats of one unchanged
//     question never get here: each ScpNode support view caches its own
//     verdicts and reports a served one through count_cached_verdict().
//
// All work is counted in QuorumEngineStats, E11-style: `qset_evals` is what
// we actually paid, `qset_evals_baseline` is what the rescan-everything
// baseline would have paid for the same checks (a cached or tier verdict
// charges the baseline only: a closure at least its first pass, |support|
// evaluations; a v-blocking check its one evaluation).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/node_set.hpp"
#include "fbqs/qset.hpp"

namespace scup::fbqs {

/// Dense id of an interned QSet within one QuorumEngine.
using QSetId = std::uint32_t;
inline constexpr QSetId kNoQSetId = 0xffff'ffffu;

struct QuorumEngineStats {
  /// Flattened QSet evaluations actually run (satisfied_by + blocked_by).
  std::uint64_t qset_evals = 0;
  /// Evaluations the recompute-every-check baseline would have run.
  std::uint64_t qset_evals_baseline = 0;
  /// Algorithm-1 closures executed (cache misses).
  std::uint64_t closure_runs = 0;
  /// Closure verdicts served without a run: from the failed-support tier,
  /// or from a caller's cached verdict (count_cached_verdict).
  std::uint64_t closure_cache_hits = 0;
  /// intern() calls resolved to an already-interned id.
  std::uint64_t intern_hits = 0;
  /// Incremental support-view maintenance (bumped by ScpNode; kept here so
  /// a shared engine aggregates them across slots).
  std::uint64_t support_updates = 0;
  std::uint64_t support_rebuilds = 0;

  bool operator==(const QuorumEngineStats&) const = default;
};

class QuorumEngine {
 public:
  QuorumEngine() = default;

  /// Hash-conses `q`: returns the existing id when a structurally equal
  /// QSet was interned before, otherwise compiles the flattened form.
  QSetId intern(const QSet& q);

  const QSet& qset(QSetId id) const { return interned_[id].qset; }
  std::size_t interned_count() const { return interned_.size(); }

  /// Flattened equivalents of QSet::satisfied_by / QSet::blocked_by.
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

  /// Accounts a verdict the caller served from its own cache instead of
  /// asking again. A quorum_contains() verdict (`quorum`) counts as a
  /// closure cache hit and charges the baseline a first pass, |support|
  /// evaluations, as a tier hit does; a blocked_by() verdict charges the
  /// baseline's one evaluation per check. Nothing is evaluated.
  void count_cached_verdict(const NodeSet& support, bool quorum);

  const QuorumEngineStats& stats() const { return stats_; }
  void count_support_update() { ++stats_.support_updates; }
  void count_support_rebuild() { ++stats_.support_rebuilds; }

  /// Test hook for the determinism regression suite: force every unordered
  /// table to rehash, scrambling bucket order. All observable behaviour
  /// (verdicts, stats, emissions) must be identical afterwards — nothing
  /// here may depend on hash-table iteration order. Enforced by
  /// scup-lint's det-unordered-iter rule and tests/test_determinism_rehash.
  void debug_rehash(std::size_t bucket_count) { by_hash_.rehash(bucket_count); }

 private:
  /// One threshold node of the flattened form. Children precede parents in
  /// `nodes_`, and a QSet's nodes are contiguous with the root last.
  struct FlatNode {
    std::uint32_t threshold = 0;
    std::uint32_t validators_begin = 0;  // into validators_
    std::uint32_t validators_end = 0;
    std::uint32_t children_begin = 0;  // into children_ (absolute node ids)
    std::uint32_t children_end = 0;
  };
  struct Interned {
    QSet qset;
    std::uint32_t nodes_begin = 0;  // into nodes_; root at nodes_end - 1
    std::uint32_t nodes_end = 0;
  };

  std::uint32_t flatten(const QSet& q);  // returns root node index
  // Raw flattened evaluations: count one qset_eval, no baseline.
  bool eval_satisfied(QSetId id, const NodeSet& nodes);
  bool eval_blocked(QSetId id, const NodeSet& nodes);

  /// Order-independent fingerprint of (member, qset id of every id in
  /// `set`) — everything a closure verdict for `set` depends on besides
  /// the set itself.
  static std::uint64_t assignment_fp(const NodeSet& set, ProcessId member,
                                     const std::vector<QSetId>& qset_ids);

  std::vector<Interned> interned_;
  std::unordered_map<std::size_t, std::vector<QSetId>> by_hash_;

  // Flattened-form pools, shared by all interned qsets.
  std::vector<FlatNode> nodes_;
  std::vector<ProcessId> validators_;
  std::vector<std::uint32_t> children_;

  std::vector<std::uint8_t> scratch_;  // per-node verdicts, reused
  std::vector<QSetId> qid_scratch_;    // distinct ids per closure pass

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

/// Structural hash of a QSet (iterative; used by interning and tests).
std::size_t qset_hash(const QSet& q);

}  // namespace scup::fbqs
