#include "scp/scp_node.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <span>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"

namespace scup::scp {

namespace {
/// Tracked-predicate cap: past this many materialized views the table is
/// dropped and rebuilt on demand (bounds memory against ballot churn; never
/// hit in healthy runs).
constexpr std::size_t kMaxTrackedPredicates = 4096;

/// True iff both lists of `nom` are strictly ascending (the NominateStmt
/// invariant the merge walk below relies on).
bool well_formed(const NominateStmt& nom) {
  const auto ascending = [](const std::vector<Value>& values) {
    return std::adjacent_find(values.begin(), values.end(),
                              std::greater_equal<>()) == values.end();
  };
  return ascending(nom.voted) && ascending(nom.accepted);
}

/// What one NOMINATE says about one value: it names it (votes for or
/// accepts it: the kNomVote predicate), and whether it accepts it
/// (kNomAccept).
struct Naming {
  bool named = false;
  bool accepted = false;
};

/// Walks the union of the values two NOMINATEs name in one ascending merge
/// of their four strictly ascending lists, calling visit(x, what `was` says
/// about x, what `now` says). A null `was` names nothing.
template <class Visit>
void diff_nominations(const NominateStmt* was, const NominateStmt& now,
                      Visit visit) {
  std::array<std::span<const Value>, 4> lists{};
  if (was != nullptr) lists = {was->voted, was->accepted, {}, {}};
  lists[2] = now.voted;
  lists[3] = now.accepted;
  while (true) {
    const std::span<const Value>* lowest = nullptr;
    for (const auto& list : lists) {
      if (!list.empty() && (lowest == nullptr || list[0] < (*lowest)[0])) {
        lowest = &list;
      }
    }
    if (lowest == nullptr) return;
    const Value x = (*lowest)[0];
    std::array<bool, 4> in{};
    for (std::size_t i = 0; i < lists.size(); ++i) {
      in[i] = !lists[i].empty() && lists[i][0] == x;
      if (in[i]) lists[i] = lists[i].subspan(1);
    }
    visit(x, Naming{in[0] || in[1], in[1]}, Naming{in[2] || in[3], in[3]});
  }
}
}  // namespace

void flush_quorum_counters(sim::ProtocolHost& host,
                           const fbqs::QuorumEngineStats& now,
                           fbqs::QuorumEngineStats& last) {
  using sim::ProtoCounter;
  const auto add = [&host](ProtoCounter c, std::uint64_t cur,
                           std::uint64_t prev) {
    if (cur != prev) host.host_counter_add(c, cur - prev);
  };
  add(ProtoCounter::kQuorumClosureRuns, now.closure_runs, last.closure_runs);
  add(ProtoCounter::kQuorumClosureCacheHits, now.closure_cache_hits,
      last.closure_cache_hits);
  add(ProtoCounter::kQsetEvals, now.qset_evals, last.qset_evals);
  add(ProtoCounter::kQsetEvalsBaseline, now.qset_evals_baseline,
      last.qset_evals_baseline);
  add(ProtoCounter::kSupportUpdates, now.support_updates,
      last.support_updates);
  add(ProtoCounter::kSupportRebuilds, now.support_rebuilds,
      last.support_rebuilds);
  last = now;
}

ScpNode::ScpNode(sim::ProtocolHost& host, std::size_t universe,
                 fbqs::QSet qset, Value own_value, ScpConfig config,
                 fbqs::QuorumEngine* engine)
    : host_(host),
      qset_(std::move(qset)),
      own_value_(own_value),
      config_(config),
      peers_(universe),
      nom_unechoed_(universe),
      owned_engine_(engine == nullptr
                        ? std::make_unique<fbqs::QuorumEngine>()
                        : nullptr),
      engine_(engine == nullptr ? owned_engine_.get() : engine),
      sender_qset_id_(universe, fbqs::kNoQSetId),
      qset_rebinds_(universe, 0) {
  // NOTE: host_.self() is not valid yet (composed hosts learn their id at
  // install time), so self's sender_qset_id_ entry is bound lazily by the
  // first emit; quorum checks cannot run before that.
  own_qset_id_ = engine_->intern(qset_);
}

void ScpNode::set_qset(fbqs::QSet qset) {
  if (started_) throw std::logic_error("ScpNode::set_qset after start");
  qset_ = std::move(qset);
  own_qset_id_ = engine_->intern(qset_);
}

void ScpNode::set_proposal(Value value) {
  if (started_) throw std::logic_error("ScpNode::set_proposal after start");
  if (value == kNoValue) {
    throw std::invalid_argument("ScpNode::set_proposal: zero value");
  }
  own_value_ = value;
}

void ScpNode::add_peer(ProcessId peer) {
  if (peer == host_.self() || peer >= peers_.universe_size() ||
      peers_.contains(peer)) {
    return;
  }
  peers_.add(peer);
  if (!started_) return;
  // Late joiners need our current state (both streams).
  for (const auto* map : {&latest_nom_, &latest_ballot_}) {
    const auto it = map->find(host_.self());
    if (it != map->end()) {
      host_.host_send(peer, sim::make_message<Envelope>(*it->second));
    }
  }
}

void ScpNode::start() {
  if (started_) return;
  if (qset_.empty()) {
    // An empty qset makes every quorum check degenerate to {self}; starting
    // in that state silently destroys agreement, so refuse loudly.
    throw std::logic_error("ScpNode::start: quorum set not configured");
  }
  started_ = true;
  nom_voted_.insert(own_value_);
  nom_open_.insert(own_value_);
  emit_nomination();
  advance();
  flush_counters();
}

bool ScpNode::handle(ProcessId from, const sim::MessagePtr& msg) {
  const auto* env = dynamic_cast<const Envelope*>(msg.get());
  if (env == nullptr) return false;
  if (env->sender != from) return true;  // forged sender field: drop
  const auto* nom = std::get_if<NominateStmt>(&env->statement);
  // Malformed NOMINATE: drop before it can touch any state.
  if (nom != nullptr && !well_formed(*nom)) return true;

  const auto& stream = nom == nullptr ? latest_ballot_ : latest_nom_;
  const auto it = stream.find(from);
  if (it != stream.end() && it->second->seq >= env->seq) return true;  // stale
  // scup-sanitize: msg holds env, whose sender was checked against from
  const EnvelopePtr prev = store_statement(EnvelopePtr(msg, env));

  // Every value a NOMINATE names joins the work list (until we have decided
  // — nomination stops there). Before start() it is only buffered there;
  // after, echo-all nomination also votes for it, and a value we already
  // vote for is already listed or a candidate. So only values the sender
  // did not name before can change anything: the rest were listed, and
  // voted for if we had started, when its previous NOMINATE arrived. The
  // exception is a previous NOMINATE buffered before start(): its values
  // were never voted for, so the first one after start() walks them all.
  if (nom != nullptr) {
    const bool walk_all = started_ && nom_unechoed_.contains(from);
    if (started_) {
      nom_unechoed_.remove(from);
    } else {
      nom_unechoed_.add(from);
    }
    if (!decided_) {
      const NominateStmt* seen = nullptr;
      if (prev != nullptr && !walk_all) {
        seen = &std::get<NominateStmt>(prev->statement);
      }
      bool grew = false;
      diff_nominations(seen, *nom, [&](Value v, Naming before, Naming after) {
        if (!after.named || before.named) return;
        if (!started_ || nom_voted_.insert(v).second) {
          nom_open_.insert(v);
          grew = true;
        }
      });
      if (started_ && grew) emit_nomination();
    }
  }
  if (!started_) return true;  // buffered; acted on at start
  advance();
  flush_counters();
  return true;
}

// ---------------------------------------------------------------- federated

std::size_t ScpNode::PredKeyHash::operator()(const PredKey& k) const {
  return static_cast<std::size_t>(
      hash_mix(static_cast<std::uint64_t>(k.cls), k.n, k.x));
}

bool ScpNode::pred_holds(const PredKey& key, const Statement& s) {
  switch (key.cls) {
    case PredClass::kNomVote:
      return votes_nominate(s, key.x);
    case PredClass::kNomAccept:
      return accepts_nominate(s, key.x);
    case PredClass::kPrepareVote: {
      const Ballot beta{key.n, key.x};
      return votes_prepare(s, beta) || accepts_prepared(s, beta);
    }
    case PredClass::kPrepareAccept:
      return accepts_prepared(s, Ballot{key.n, key.x});
    case PredClass::kCommitVote:
      return votes_commit(s, key.n, key.x) || accepts_commit(s, key.n, key.x);
    case PredClass::kCommitAccept:
      return accepts_commit(s, key.n, key.x);
    case PredClass::kBallotStream:
      return is_ballot_statement(s);
  }
  return false;
}

ScpNode::SupportView& ScpNode::support_view(const PredKey& key) const {
  const bool nomination = is_nomination_pred(key.cls);
  auto& table = nomination ? nom_support_ : ballot_support_;
  const auto it = table.find(key);
  if (it != table.end()) return it->second;
  // First query of this predicate: one scan over its stream (a sender
  // supports it if its current statement there implies it; the other
  // stream never does), then the view stays fresh via
  // store_statement().
  SupportView view;
  view.members = NodeSet(peers_.universe_size());
  for (const auto& [id, env] : nomination ? latest_nom_ : latest_ballot_) {
    if (pred_holds(key, env->statement)) view.members.add(id);
  }
  engine_->count_support_rebuild();
  return table.emplace(key, std::move(view)).first->second;
}

ScpNode::EnvelopePtr ScpNode::store_statement(EnvelopePtr env) {
  const Envelope& stored = *env;  // owned by its map entry from here on
  const ProcessId id = stored.sender;
  const bool ballot = is_ballot_statement(stored.statement);
  auto& entry = (ballot ? latest_ballot_ : latest_nom_)[id];
  EnvelopePtr prev = std::exchange(entry, std::move(env));
  if (nom_support_.size() + ballot_support_.size() > kMaxTrackedPredicates) {
    // Rebuilt lazily; counted per-view as rebuilds.
    nom_support_.clear();
    ballot_support_.clear();
  }
  // Of what a view's verdicts read, only its membership changes here (qset
  // bindings are bind_qset()'s), so a flip drops them.
  const auto set_member = [id](SupportView& view, bool member) {
    if (view.members.contains(id) == member) return;
    if (member) {
      view.members.add(id);
    } else {
      view.members.remove(id);
    }
    view.quorum.reset();
    view.vblocking.reset();
  };
  if (ballot) {
    candidate_ballots_stale_ = true;
    // scup-lint: order-insensitive(each entry is updated independently from this sender's statement; no cross-entry reads or emissions)
    for (auto& [key, view] : ballot_support_) {
      set_member(view, pred_holds(key, stored.statement));
    }
  } else {
    // A nomination view's membership for this sender can only change at a
    // value its previous or new NOMINATE names.
    const NominateStmt* was = nullptr;
    if (prev != nullptr) was = &std::get<NominateStmt>(prev->statement);
    const auto& now = std::get<NominateStmt>(stored.statement);
    diff_nominations(was, now, [&](Value x, Naming before, Naming after) {
      if (before.named != after.named) {
        const auto it = nom_support_.find({PredClass::kNomVote, 0, x});
        if (it != nom_support_.end()) set_member(it->second, after.named);
      }
      if (before.accepted != after.accepted) {
        const auto it = nom_support_.find({PredClass::kNomAccept, 0, x});
        if (it != nom_support_.end()) set_member(it->second, after.accepted);
      }
    });
  }
  engine_->count_support_update();
  // Effective qset: the ballot-stream envelope wins when both exist (they
  // are the same for correct senders anyway).
  const Envelope* effective = &stored;
  if (!ballot) {
    const auto it = latest_ballot_.find(id);
    if (it != latest_ballot_.end()) effective = it->second.get();
  }
  bind_qset(id, effective->qset);
  return prev;
}

void ScpNode::bind_qset(ProcessId id, const fbqs::QSet& q) {
  const fbqs::QSetId cur = sender_qset_id_[id];
  // Cheap change test first: structural equality against the currently
  // bound qset avoids re-hashing the common unchanged case.
  if (cur != fbqs::kNoQSetId && engine_->qset(cur) == q) return;
  // Rebind budget: each intern() of an unseen qset is permanent engine
  // memory, and the sender chooses the qset — so a rotating-qset adversary
  // gets kMaxQsetRebinds fresh interns, then keeps its current binding.
  // (Quorum checks keep using the last accepted qset, which is sound: past
  // the budget the sender is provably faulty and its qset arbitrary.)
  if (cur != fbqs::kNoQSetId) {
    if (qset_rebinds_[id] >= kMaxQsetRebinds) return;
    ++qset_rebinds_[id];
  }
  sender_qset_id_[id] = engine_->intern(q);
  // Every cached quorum verdict read the old assignment.
  ++rebind_epoch_;
}

bool ScpNode::support_views_consistent() const {
  const ProcessId self = host_.self();
  // Algorithm-1 closure from scratch on the recursive QSet form: drop every
  // member whose bound qset the survivors do not satisfy (unbound members
  // outright) until nothing changes.
  const auto quorum_for_self = [this, self](const NodeSet& support) {
    NodeSet live = support;
    for (bool changed = true; changed;) {
      NodeSet dropped(live.universe_size());
      for (ProcessId m : live) {
        const fbqs::QSetId qid = sender_qset_id_[m];
        if (qid == fbqs::kNoQSetId || !engine_->qset(qid).satisfied_by(live)) {
          dropped.add(m);
        }
      }
      changed = !dropped.empty();
      live -= dropped;
    }
    return live.contains(self);
  };
  // scup-lint: order-insensitive(pure all-of check; result is a conjunction over entries)
  for (const auto* table : {&nom_support_, &ballot_support_}) {
    for (const auto& [key, view] : *table) {
      if (is_nomination_pred(key.cls) != (table == &nom_support_)) {
        return false;
      }
      NodeSet fresh(peers_.universe_size());
      for (const auto* map : {&latest_nom_, &latest_ballot_}) {
        for (const auto& [id, env] : *map) {
          if (pred_holds(key, env->statement)) fresh.add(id);
        }
      }
      if (!(fresh == view.members)) return false;
      if (view.quorum.has_value() && view.quorum_epoch == rebind_epoch_ &&
          *view.quorum != quorum_for_self(view.members)) {
        return false;
      }
      if (view.vblocking.has_value()) {
        NodeSet others = view.members;
        others.remove(self);
        if (*view.vblocking != qset_.blocked_by(others)) return false;
      }
    }
  }
  return true;
}

bool ScpNode::nomination_worklist_consistent() const {
  if (decided_) return nom_open_.empty();
  // S: our votes plus every value a stored NOMINATE names. A NOMINATE
  // handled after start() has been echoed: all it names is in our votes.
  std::set<Value> seen = nom_voted_;
  for (const auto& [id, env] : latest_nom_) {
    const auto& nom = std::get<NominateStmt>(env->statement);
    for (const auto* values : {&nom.voted, &nom.accepted}) {
      for (Value v : *values) {
        if (started_ && !nom_unechoed_.contains(id) &&
            nom_voted_.count(v) == 0) {
          return false;
        }
        seen.insert(v);
      }
    }
  }
  for (Value v : seen) {
    if (candidates_.count(v) == 0 && nom_open_.count(v) == 0) return false;
  }
  for (Value v : nom_open_) {
    if (candidates_.count(v) > 0) return false;
    if (seen.count(v) > 0) continue;
    // Listed but outside S: nobody may vote for or accept it.
    const PredKey votes{PredClass::kNomVote, 0, v};
    for (const auto* map : {&latest_nom_, &latest_ballot_}) {
      for (const auto& [id, env] : *map) {
        if (pred_holds(votes, env->statement)) return false;
      }
    }
  }
  return true;
}

bool ScpNode::is_quorum_satisfying(const PredKey& pred) const {
  // The Algorithm-1 closure (drop members whose quorum set is not satisfied
  // by the remaining support) runs in the engine once per view and
  // assignment; repeats are served from the view.
  SupportView& view = support_view(pred);
  if (!view.members.contains(host_.self())) return false;
  if (view.quorum.has_value() && view.quorum_epoch == rebind_epoch_) {
    engine_->count_cached_verdict(view.members, /*quorum=*/true);
    return *view.quorum;
  }
  view.quorum =
      engine_->quorum_contains(view.members, host_.self(), sender_qset_id_);
  view.quorum_epoch = rebind_epoch_;
  return *view.quorum;
}

bool ScpNode::is_vblocking(const PredKey& pred) const {
  SupportView& view = support_view(pred);
  if (view.vblocking.has_value()) {
    engine_->count_cached_verdict(view.members, /*quorum=*/false);
    return *view.vblocking;
  }
  vblock_scratch_ = view.members;
  vblock_scratch_.remove(host_.self());
  view.vblocking = engine_->blocked_by(own_qset_id_, vblock_scratch_);
  return *view.vblocking;
}

bool ScpNode::federated_accept(const PredKey& votes_or_accepts,
                               const PredKey& accepts) const {
  return is_vblocking(accepts) || is_quorum_satisfying(votes_or_accepts);
}

bool ScpNode::federated_ratify(const PredKey& accepts) const {
  return is_quorum_satisfying(accepts);
}

void ScpNode::flush_counters() {
  // Shared-engine nodes (ledger slots) don't flush: the multiplexer owns
  // the engine and reports the aggregate.
  if (owned_engine_ == nullptr) return;
  flush_quorum_counters(host_, engine_->stats(), flushed_);
}

// ------------------------------------------------------------------ driving

void ScpNode::advance() {
  if (!started_) return;
  bool changed = true;
  while (changed) {
    changed = false;
    if (!decided_) {
      // Nomination keeps running during the ballot phases: candidate sets
      // at different nodes converge over time, which is what lets ballot
      // values agree after bumps.
      changed |= step_nomination();
    }
    if (phase_ == Phase::kNominate) {
      changed |= maybe_start_ballot();
    }
    if (phase_ == Phase::kPrepare || phase_ == Phase::kConfirm) {
      changed |= step_ballot();
    }
  }
}

bool ScpNode::step_nomination() {
  bool changed = false;
  // Candidate values: everything anyone has mentioned that is not yet
  // confirmed (the work list; see the class comment).
  for (auto it = nom_open_.begin(); it != nom_open_.end();) {
    const Value v = *it;
    if (nom_accepted_.count(v) == 0) {
      const bool accepted =
          federated_accept(PredKey{PredClass::kNomVote, 0, v},
                           PredKey{PredClass::kNomAccept, 0, v});
      if (accepted) {
        nom_accepted_.insert(v);
        nom_voted_.insert(v);
        changed = true;
      }
    }
    if (nom_accepted_.count(v) > 0 &&
        federated_ratify(PredKey{PredClass::kNomAccept, 0, v})) {
      candidates_.insert(v);
      it = nom_open_.erase(it);
      changed = true;
    } else {
      ++it;
    }
  }
  if (changed) emit_nomination();
  return changed;
}

Value ScpNode::composite_candidate() const {
  // Deterministic combine: maximum of the confirmed candidates.
  return candidates_.empty() ? own_value_ : *candidates_.rbegin();
}

bool ScpNode::maybe_start_ballot() {
  if (phase_ != Phase::kNominate) return false;

  Value value = kNoValue;
  if (!candidates_.empty()) {
    value = composite_candidate();
  } else {
    // Catch-up: if a v-blocking set has moved to the ballot protocol, adopt
    // the value of the highest working ballot among them.
    if (!is_vblocking(PredKey{PredClass::kBallotStream, 0, 0})) {
      return false;
    }
    Ballot best;
    for (const auto& [id, env] : latest_ballot_) {
      if (id == host_.self()) continue;
      const Ballot wb = working_ballot(env->statement);
      if (wb.valid() && best < wb) best = wb;
    }
    if (!best.valid()) return false;
    value = best.x;
  }

  phase_ = Phase::kPrepare;
  b_ = Ballot{1, value};
  arm_ballot_timer();
  emit_ballot();
  return true;
}

bool ScpNode::step_ballot() {
  bool changed = false;
  changed |= attempt_accept_prepared();
  changed |= attempt_confirm_prepared();
  changed |= attempt_accept_commit();
  changed |= attempt_confirm_commit();
  return changed;
}

const std::vector<Ballot>& ScpNode::candidate_ballots() {
  if (!candidate_ballots_stale_ && candidate_ballots_b_ == b_) {
    return candidate_ballots_;
  }
  candidate_ballots_stale_ = false;
  candidate_ballots_b_ = b_;
  std::vector<Ballot>& out = candidate_ballots_;
  out.clear();
  auto push = [&out](const Ballot& b) {
    if (b.valid()) out.push_back(b);
  };
  push(b_);
  for (const auto& [id, env] : latest_ballot_) {
    if (const auto* p = std::get_if<PrepareStmt>(&env->statement)) {
      push(p->b);
      push(p->p);
      push(p->p_prime);
    } else if (const auto* c = std::get_if<ConfirmStmt>(&env->statement)) {
      push(c->b);
      push(Ballot{c->p_n, c->b.x});
      push(Ballot{c->h_n, c->b.x});
    } else if (const auto* e = std::get_if<ExternalizeStmt>(&env->statement)) {
      push(e->commit);
      push(Ballot{e->h_n, e->commit.x});
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  std::reverse(out.begin(), out.end());  // highest first
  return out;
}

bool ScpNode::attempt_accept_prepared() {
  bool changed = false;
  for (const Ballot& beta : candidate_ballots()) {
    // Skip if already covered by p_ or p_prime_.
    if (le_compatible(beta, p_) || le_compatible(beta, p_prime_)) continue;
    const bool accepted =
        federated_accept(PredKey{PredClass::kPrepareVote, beta.n, beta.x},
                         PredKey{PredClass::kPrepareAccept, beta.n, beta.x});
    if (!accepted) continue;
    // Update (p, p') = two highest accepted-prepared, mutually incompatible.
    if (!p_.valid() || p_ < beta) {
      if (p_.valid() && !compatible(p_, beta)) p_prime_ = p_;
      p_ = beta;
    } else if (!compatible(beta, p_) && (!p_prime_.valid() || p_prime_ < beta)) {
      p_prime_ = beta;
    } else {
      // Below p and p' and incompatible with both: every commit vote it
      // aborts is already aborted by p or p'. Counting it as a change would
      // re-run advance() on an unchanged state forever.
      continue;
    }
    changed = true;
  }
  if (changed) {
    // Accepting prepared(p) aborts commit votes for incompatible smaller
    // ballots: if c is incompatible with p (or p'), clear it.
    if (c_.valid() &&
        ((p_.valid() && !compatible(c_, p_) && c_ < p_) ||
         (p_prime_.valid() && !compatible(c_, p_prime_) && c_ < p_prime_))) {
      c_ = Ballot{};
    }
    emit_ballot();
  }
  return changed;
}

bool ScpNode::attempt_confirm_prepared() {
  bool changed = false;
  for (const Ballot& beta : candidate_ballots()) {
    // Can only confirm what we have accepted.
    if (!le_compatible(beta, p_) && !le_compatible(beta, p_prime_)) continue;
    if (le_compatible(beta, h_)) continue;  // already confirmed higher
    if (federated_ratify(
            PredKey{PredClass::kPrepareAccept, beta.n, beta.x})) {
      if (!h_.valid() || h_ < beta) {
        h_ = beta;
        changed = true;
      }
    }
  }
  if (!changed) return false;

  // Adopt the confirmed value and start voting commit: b tracks h, and c is
  // the lowest ballot of the commit vote range.
  if (!compatible(b_, h_) || b_.n < h_.n) {
    b_ = Ballot{std::max(b_.n, h_.n), h_.x};
  }
  if (!c_.valid() && compatible(b_, h_) && b_.n <= h_.n) {
    // Vote commit for [b, h] unless something incompatible above h was
    // accepted prepared (which would abort those commit votes).
    const bool aborted =
        (p_.valid() && !compatible(p_, h_) && h_ < p_) ||
        (p_prime_.valid() && !compatible(p_prime_, h_) && h_ < p_prime_);
    if (!aborted) c_ = b_;
  }
  emit_ballot();
  return true;
}

std::vector<std::uint32_t> ScpNode::commit_boundaries(Value x) const {
  std::vector<std::uint32_t> ns;
  auto push = [&ns](std::uint32_t n) {
    if (n > 0) ns.push_back(n);
  };
  if (c_.valid() && c_.x == x) {
    push(c_.n);
    push(h_.n);
  }
  for (const auto& [id, env] : latest_ballot_) {
    if (const auto* p = std::get_if<PrepareStmt>(&env->statement)) {
      if (p->b.x == x) {
        push(p->c_n);
        push(p->h_n);
      }
    } else if (const auto* c = std::get_if<ConfirmStmt>(&env->statement)) {
      if (c->b.x == x) {
        push(c->c_n);
        push(c->h_n);
      }
    } else if (const auto* e = std::get_if<ExternalizeStmt>(&env->statement)) {
      if (e->commit.x == x) {
        push(e->commit.n);
        push(e->h_n);
      }
    }
  }
  std::sort(ns.begin(), ns.end());
  ns.erase(std::unique(ns.begin(), ns.end()), ns.end());
  return ns;
}

bool ScpNode::attempt_accept_commit() {
  if (!b_.valid()) return false;
  const Value x = b_.x;
  bool changed = false;
  for (std::uint32_t n : commit_boundaries(x)) {
    if (commit_c_n_ != 0 && commit_c_n_ <= n && n <= commit_h_n_) continue;
    const bool accepted =
        federated_accept(PredKey{PredClass::kCommitVote, n, x},
                         PredKey{PredClass::kCommitAccept, n, x});
    if (!accepted) continue;
    if (commit_c_n_ == 0) {
      commit_c_n_ = commit_h_n_ = n;
    } else {
      commit_c_n_ = std::min(commit_c_n_, n);
      commit_h_n_ = std::max(commit_h_n_, n);
    }
    changed = true;
  }
  if (!changed) return false;

  if (phase_ == Phase::kPrepare) phase_ = Phase::kConfirm;
  // b tracks the highest accepted commit counter.
  if (b_.n < commit_h_n_) b_ = Ballot{commit_h_n_, x};
  if (h_.n < commit_h_n_ || !compatible(h_, b_)) h_ = Ballot{commit_h_n_, x};
  emit_ballot();
  return true;
}

bool ScpNode::attempt_confirm_commit() {
  if (phase_ != Phase::kConfirm || commit_c_n_ == 0) return false;
  const Value x = b_.x;
  bool changed = false;
  for (std::uint32_t n : commit_boundaries(x)) {
    if (ext_c_n_ != 0 && ext_c_n_ <= n && n <= ext_h_n_) continue;
    if (!federated_ratify(PredKey{PredClass::kCommitAccept, n, x})) {
      continue;
    }
    if (ext_c_n_ == 0) {
      ext_c_n_ = ext_h_n_ = n;
    } else {
      ext_c_n_ = std::min(ext_c_n_, n);
      ext_h_n_ = std::max(ext_h_n_, n);
    }
    changed = true;
  }
  if (!changed) return false;

  phase_ = Phase::kExternalize;
  decided_ = x;
  emit_ballot();
  // No federated check runs after externalization (nomination and ballot
  // steps are both gated on !decided_ / phase); drop the support views and
  // the nomination work list.
  nom_support_.clear();
  ballot_support_.clear();
  nom_open_.clear();
  if (on_decide) on_decide(x);
  return true;
}

// ---------------------------------------------------------------- emission

Statement ScpNode::ballot_statement() const {
  switch (phase_) {
    case Phase::kPrepare: {
      PrepareStmt s;
      s.b = b_;
      s.p = p_;
      s.p_prime = p_prime_;
      s.h_n = h_.valid() && compatible(h_, b_) ? h_.n : 0;
      // A commit-vote range is only meaningful under its confirmed-prepared
      // upper bound: when h is suppressed (incompatible with b), suppress c
      // too instead of publishing the malformed range [c_n, 0]. Invariant:
      // c_n != 0 ⇒ c_n <= h_n.
      s.c_n = c_.valid() && c_.n <= s.h_n ? c_.n : 0;
      return s;
    }
    case Phase::kConfirm: {
      ConfirmStmt s;
      s.b = b_;
      s.p_n = p_.valid() && compatible(p_, b_) ? p_.n : 0;
      s.c_n = commit_c_n_;
      s.h_n = commit_h_n_;
      return s;
    }
    case Phase::kExternalize: {
      ExternalizeStmt s;
      s.commit = Ballot{ext_c_n_, *decided_};
      s.h_n = ext_h_n_;
      return s;
    }
    case Phase::kNominate:
      break;
  }
  throw std::logic_error("ballot_statement called in nomination phase");
}

void ScpNode::emit_nomination() {
  ++seq_;
  NominateStmt nom{{nom_voted_.begin(), nom_voted_.end()},
                   {nom_accepted_.begin(), nom_accepted_.end()}};
  const auto msg = sim::make_message<Envelope>(host_.self(), seq_, qset_,
                                               Statement{std::move(nom)});
  store_statement(std::static_pointer_cast<const Envelope>(msg));
  for (ProcessId peer : peers_) host_.host_send(peer, msg);
}

void ScpNode::emit_ballot() {
  ++seq_;
  const auto msg = sim::make_message<Envelope>(host_.self(), seq_, qset_,
                                               ballot_statement());
  store_statement(std::static_pointer_cast<const Envelope>(msg));
  for (ProcessId peer : peers_) host_.host_send(peer, msg);
}

void ScpNode::arm_ballot_timer() {
  const std::uint32_t round = std::min(b_.n, config_.timeout_growth_cap);
  host_.host_set_timer(kScpBallotTimerId,
                       config_.ballot_timeout_base * (round + 1));
}

void ScpNode::on_ballot_timer() {
  if (!started_ || decided_) return;
  if (phase_ == Phase::kNominate) {
    arm_ballot_timer();
    return;
  }
  // Bump the ballot counter; keep the confirmed-prepared value if any (so
  // commit votes are never contradicted), else refresh the composite from
  // the (still running) nomination.
  const Value value = h_.valid() ? h_.x : composite_candidate();
  b_ = Ballot{b_.n + 1, value};
  arm_ballot_timer();
  emit_ballot();
  advance();
  flush_counters();
}

Value ScpNode::decision() const {
  if (!decided_) throw std::logic_error("ScpNode::decision: not decided");
  return *decided_;
}

}  // namespace scup::scp
