#include "fbqs/quorum_engine.hpp"

#include "common/rng.hpp"

namespace scup::fbqs {

std::size_t qset_hash(const QSet& q) {
  // Iterative pre-order walk; mixes thresholds, validators and tree shape.
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  std::vector<const QSet*> stack{&q};
  while (!stack.empty()) {
    const QSet* cur = stack.back();
    stack.pop_back();
    h = hash_mix(h, cur->threshold(), cur->validators().size());
    h = hash_mix(h, cur->inner_sets().size());
    for (ProcessId v : cur->validators()) h = hash_mix(h, v);
    for (const QSet& inner : cur->inner_sets()) stack.push_back(&inner);
  }
  return static_cast<std::size_t>(h);
}

QSetId QuorumEngine::intern(const QSet& q) {
  const std::size_t h = qset_hash(q);
  auto& bucket = by_hash_[h];
  for (QSetId id : bucket) {
    if (interned_[id].qset == q) {
      ++stats_.intern_hits;
      return id;
    }
  }
  Interned entry;
  entry.qset = q;
  entry.nodes_begin = static_cast<std::uint32_t>(nodes_.size());
  flatten(entry.qset);
  entry.nodes_end = static_cast<std::uint32_t>(nodes_.size());
  const auto id = static_cast<QSetId>(interned_.size());
  interned_.push_back(std::move(entry));
  bucket.push_back(id);
  return id;
}

std::uint32_t QuorumEngine::flatten(const QSet& q) {
  // Explicit-stack post-order: a frame emits its node only after all inner
  // sets have been emitted, so children always precede parents in nodes_.
  struct Frame {
    const QSet* qset;
    std::size_t next_inner = 0;
    std::vector<std::uint32_t> child_ids;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{&q, 0, {}});
  std::uint32_t root = 0;
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_inner < top.qset->inner_sets().size()) {
      const QSet* inner = &top.qset->inner_sets()[top.next_inner++];
      stack.push_back(Frame{inner, 0, {}});
      continue;
    }
    FlatNode node;
    node.threshold = static_cast<std::uint32_t>(top.qset->threshold());
    node.validators_begin = static_cast<std::uint32_t>(validators_.size());
    validators_.insert(validators_.end(), top.qset->validators().begin(),
                       top.qset->validators().end());
    node.validators_end = static_cast<std::uint32_t>(validators_.size());
    node.children_begin = static_cast<std::uint32_t>(children_.size());
    children_.insert(children_.end(), top.child_ids.begin(),
                     top.child_ids.end());
    node.children_end = static_cast<std::uint32_t>(children_.size());
    const auto node_id = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(node);
    stack.pop_back();
    if (stack.empty()) {
      root = node_id;
    } else {
      stack.back().child_ids.push_back(node_id);
    }
  }
  return root;
}

bool QuorumEngine::eval_satisfied(QSetId id, const NodeSet& nodes) {
  ++stats_.qset_evals;
  const Interned& q = interned_[id];
  if (scratch_.size() < nodes_.size()) scratch_.resize(nodes_.size());
  for (std::uint32_t i = q.nodes_begin; i < q.nodes_end; ++i) {
    const FlatNode& fn = nodes_[i];
    std::uint32_t count = 0;
    for (std::uint32_t v = fn.validators_begin;
         count < fn.threshold && v < fn.validators_end; ++v) {
      if (nodes.contains(validators_[v])) ++count;
    }
    for (std::uint32_t c = fn.children_begin;
         count < fn.threshold && c < fn.children_end; ++c) {
      if (scratch_[children_[c]]) ++count;
    }
    scratch_[i] = count >= fn.threshold ? 1 : 0;
  }
  return scratch_[q.nodes_end - 1] != 0;
}

bool QuorumEngine::satisfied_by(QSetId id, const NodeSet& nodes) {
  // One evaluation either way: the baseline also evaluated once per check.
  ++stats_.qset_evals_baseline;
  return eval_satisfied(id, nodes);
}

bool QuorumEngine::eval_blocked(QSetId id, const NodeSet& nodes) {
  ++stats_.qset_evals;
  const Interned& q = interned_[id];
  if (scratch_.size() < nodes_.size()) scratch_.resize(nodes_.size());
  for (std::uint32_t i = q.nodes_begin; i < q.nodes_end; ++i) {
    const FlatNode& fn = nodes_[i];
    // Count elements that could still appear in a slice avoiding `nodes`;
    // blocked iff fewer than `threshold` stay alive. threshold == 0 (the
    // empty qset) is never blocked: alive >= 0 == threshold.
    std::uint32_t alive = 0;
    for (std::uint32_t v = fn.validators_begin;
         alive < fn.threshold && v < fn.validators_end; ++v) {
      if (!nodes.contains(validators_[v])) ++alive;
    }
    for (std::uint32_t c = fn.children_begin;
         alive < fn.threshold && c < fn.children_end; ++c) {
      if (scratch_[children_[c]]) ++alive;  // scratch = "not blocked"
    }
    scratch_[i] = alive >= fn.threshold ? 1 : 0;
  }
  return scratch_[q.nodes_end - 1] == 0;
}

bool QuorumEngine::blocked_by(QSetId id, const NodeSet& nodes) {
  ++stats_.qset_evals_baseline;
  return eval_blocked(id, nodes);
}

void QuorumEngine::insert_failed(MonotoneEntry entry) {
  for (MonotoneEntry& existing : failed_supports_) {
    if (existing.member == entry.member &&
        existing.set.universe_size() == entry.set.universe_size() &&
        existing.set.subset_of(entry.set)) {
      existing = std::move(entry);
      return;
    }
  }
  if (failed_supports_.size() < kMaxMonotone) {
    failed_supports_.push_back(std::move(entry));
  } else {
    failed_supports_[failed_rr_] = std::move(entry);
    failed_rr_ = (failed_rr_ + 1) % failed_supports_.size();
  }
}

void QuorumEngine::count_cached_verdict(const NodeSet& support, bool quorum) {
  if (quorum) {
    ++stats_.closure_cache_hits;
    stats_.qset_evals_baseline += support.count();
  } else {
    ++stats_.qset_evals_baseline;
  }
}

std::uint64_t QuorumEngine::assignment_fp(const NodeSet& set,
                                          ProcessId member,
                                          const std::vector<QSetId>& qset_ids) {
  std::uint64_t h = hash_mix(0x9d2c5680u, member);
  for (ProcessId id : set) {
    h = hash_mix(h, id, id < qset_ids.size() ? qset_ids[id] : kNoQSetId);
  }
  return h;
}

bool QuorumEngine::quorum_contains(const NodeSet& support, ProcessId member,
                                   const std::vector<QSetId>& qset_ids) {
  if (!support.contains(member)) return false;
  // The failed tier first; every entry re-validates by recomputing the
  // fingerprint of ITS OWN set under the caller's current assignment —
  // stale entries (a member re-announced a different qset) just stop
  // matching. The baseline (closure from scratch on `support`) costs at
  // least one full pass — |support| evaluations — so that is what a
  // subsumption hit conservatively charges it (realized savings are
  // under-reported, never inflated).
  for (const MonotoneEntry& failed : failed_supports_) {
    if (failed.member == member &&
        failed.set.universe_size() == support.universe_size() &&
        support.subset_of(failed.set) &&
        failed.fp == assignment_fp(failed.set, member, qset_ids)) {
      ++stats_.closure_cache_hits;
      stats_.qset_evals_baseline += support.count();
      return false;
    }
  }
  // First-pass reject: if `member`'s own qset is not satisfied by the full
  // support, the first closure pass removes it — FALSE at one evaluation,
  // where the baseline's first pass alone costs |support|. Fed to the
  // failed tier so subsets are rejected without any evaluation.
  const QSetId member_qid =
      member < qset_ids.size() ? qset_ids[member] : kNoQSetId;
  if (member_qid == kNoQSetId) return false;
  const auto support_size = static_cast<std::uint32_t>(support.count());
  const auto record_failed = [&] {
    insert_failed({support, assignment_fp(support, member, qset_ids), member});
  };
  if (!eval_satisfied(member_qid, support)) {
    ++stats_.closure_runs;
    stats_.qset_evals_baseline += support_size;
    record_failed();
    return false;
  }

  ++stats_.closure_runs;
  // Algorithm-1 greatest fixpoint at QSET-GROUP granularity — the payoff
  // of hash-consing. satisfied_by depends on the evaluated set, not on
  // which member asks, so members sharing an interned qset are
  // interchangeable: each pass evaluates each DISTINCT qset id once
  // (typically a handful) instead of every member, and an unsatisfied
  // group's members are removed as a batch. Every batched removal is
  // individually justified at removal time, so this is a chaotic
  // iteration of the same monotone operator as the historical
  // member-at-a-time loop — identical greatest fixpoint, identical
  // verdict.
  //
  // Baseline accounting is a provable LOWER bound of the historical
  // loop's cost: its first pass evaluated exactly |support| members, and
  // every later pass at least the members still alive when the pass
  // ended. Savings are under-reported, never inflated.
  NodeSet live = support;
  std::uint32_t baseline_cost = support_size;  // historical pass 1
  bool changed = true;
  std::size_t pass = 0;
  while (changed && live.contains(member)) {
    changed = false;
    ++pass;
    qid_scratch_.clear();
    for (ProcessId id : live) {
      const QSetId qid = id < qset_ids.size() ? qset_ids[id] : kNoQSetId;
      bool seen = false;
      for (QSetId s : qid_scratch_) {
        if (s == qid) {
          seen = true;
          break;
        }
      }
      if (!seen) qid_scratch_.push_back(qid);
    }
    for (QSetId qid : qid_scratch_) {
      if (qid != kNoQSetId && eval_satisfied(qid, live)) continue;
      for (ProcessId id : live) {
        const QSetId mqid = id < qset_ids.size() ? qset_ids[id] : kNoQSetId;
        if (mqid == qid) live.remove(id);
      }
      changed = true;
      if (!live.contains(member)) break;  // verdict settled: FALSE
    }
    if (pass > 1) baseline_cost += static_cast<std::uint32_t>(live.count());
  }
  stats_.qset_evals_baseline += baseline_cost;

  // Feed the failed tier: `support` is a proven-failed set when the
  // fixpoint dropped `member`.
  if (live.contains(member)) return true;
  record_failed();
  return false;
}

}  // namespace scup::fbqs
