#include "scp/scp_node.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <span>
#include <stdexcept>
#include <utility>

#include "fbqs/quorum.hpp"

namespace scup::scp {

namespace {
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
      latest_nom_(universe),
      latest_ballot_(universe),
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
  for (const auto* stream : {&latest_nom_, &latest_ballot_}) {
    if (const EnvelopePtr& own = (*stream)[host_.self()]) {
      host_.host_send(peer, sim::make_message<Envelope>(*own));
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
  const auto slot =
      std::ranges::lower_bound(nom_open_, own_value_, {}, &NomEntry::x);
  if (slot == nom_open_.end() || slot->x != own_value_) {
    nom_open_.emplace(slot, own_value_);
  }
  emit_nomination();
  advance();
  flush_counters();
}

bool ScpNode::handle(ProcessId from, const sim::MessagePtr& msg) {
  const auto* env = sim::message_as<Envelope>(msg.get());
  if (env == nullptr) return false;
  // Forged sender field, or a sender with no slot: drop.
  if (env->sender != from || from >= latest_nom_.size()) return true;
  const auto* nom = std::get_if<NominateStmt>(&env->statement);
  // Stale first: most deliveries are, and the check is one index.
  const auto& stream = nom == nullptr ? latest_ballot_ : latest_nom_;
  if (stream[from] != nullptr && stream[from]->seq >= env->seq) return true;
  // Malformed NOMINATE: drop before it can touch any state.
  if (nom != nullptr && !well_formed(*nom)) return true;
  // A NOMINATE's values are listed and echoed by the merge walk that
  // updates the views.
  // scup-sanitize: msg holds env, whose sender was checked against from
  const bool voted_more = store_statement(EnvelopePtr(msg, env), true);
  if (!started_) return true;  // buffered; acted on at start
  if (voted_more) emit_nomination();
  advance();
  flush_counters();
  return true;
}

// ---------------------------------------------------------------- federated

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

ScpNode::SupportView ScpNode::build_view(const PredKey& key) {
  // One scan over the predicate's stream (a sender supports it if its
  // current statement there implies it; the other stream never does), then
  // the view stays fresh via store_statement().
  SupportView view;
  view.members = NodeSet(peers_.universe_size());
  const bool nomination = is_nomination_pred(key.cls);
  for (const EnvelopePtr& env : nomination ? latest_nom_ : latest_ballot_) {
    if (env != nullptr && pred_holds(key, env->statement)) {
      view.members.add(env->sender);
    }
  }
  engine_->count_support_rebuild();
  return view;
}

ScpNode::SupportView& ScpNode::support_view(const PredKey& key) {
  const auto it = std::ranges::lower_bound(ballot_support_, key, {},
                                           &SupportTable::value_type::first);
  if (it != ballot_support_.end() && it->first == key) return it->second;
  return ballot_support_.emplace(it, key, build_view(key))->second;
}

ScpNode::SupportView& ScpNode::nomination_view(
    std::optional<SupportView>& slot, PredClass cls, Value x) {
  if (!slot) {
    slot = build_view(PredKey{cls, 0, x});
    ++nom_views_;
  }
  return *slot;
}

bool ScpNode::store_statement(EnvelopePtr env, bool received) {
  const Envelope& stored = *env;  // owned by its map entry from here on
  const ProcessId id = stored.sender;
  const bool ballot = is_ballot_statement(stored.statement);
  auto& entry = (ballot ? latest_ballot_ : latest_nom_)[id];
  const EnvelopePtr prev = std::exchange(entry, std::move(env));
  if (nom_views_ + ballot_support_.size() > kMaxTrackedPredicates) {
    // Rebuilt lazily; counted per-view as rebuilds.
    ballot_support_.clear();
    for (NomEntry& open : nom_open_) {
      open.votes.reset();
      open.accepts.reset();
    }
    nom_views_ = 0;
    reopen_all();
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
  bool voted_more = false;
  if (ballot) {
    candidate_ballots_stale_ = true;
    ballot_dirty_ = true;
    for (auto& [key, view] : ballot_support_) {
      set_member(view, pred_holds(key, stored.statement));
    }
  } else {
    // Every value a received NOMINATE names joins the work list (until we
    // have decided — nomination stops there). Before start() it is only
    // buffered there; after, echo-all nomination also votes for it, and a
    // value we already vote for is already listed or a candidate. So only
    // values the sender did not name before can change anything: the rest
    // were listed, and voted for if we had started, when its previous
    // NOMINATE arrived. The exception is a previous NOMINATE buffered
    // before start(): its values were never voted for, so the first one
    // after start() echoes them all.
    bool echo_all = false;
    if (received) {
      echo_all = started_ && nom_unechoed_.contains(id);
      if (started_) {
        nom_unechoed_.remove(id);
      } else {
        nom_unechoed_.add(id);
      }
    }
    // A nomination view's membership for this sender can only change at a
    // value its previous or new NOMINATE names. The walk and the work list
    // are both ascending, so one cursor finds each value's entry.
    const NominateStmt* was = nullptr;
    if (prev != nullptr) was = &std::get<NominateStmt>(prev->statement);
    const auto& now = std::get<NominateStmt>(stored.statement);
    std::size_t at = 0;
    diff_nominations(was, now, [&](Value x, Naming before, Naming after) {
      while (at < nom_open_.size() && nom_open_[at].x < x) ++at;
      const bool listed = at < nom_open_.size() && nom_open_[at].x == x;
      if (listed && (before.named != after.named ||
                     before.accepted != after.accepted)) {
        NomEntry& open = nom_open_[at];
        if (open.votes) set_member(*open.votes, after.named);
        if (open.accepts) set_member(*open.accepts, after.accepted);
        open.dirty = true;
      }
      if (!received || decided_ || !after.named ||
          (before.named && !echo_all)) {
        return;
      }
      if (started_) {
        if (!nom_voted_.insert(x)) return;  // already listed, or a candidate
        voted_more = true;
      }
      if (!listed) nom_open_.emplace(nom_open_.begin() + at, x);
    });
  }
  engine_->count_support_update();
  // Effective qset: the ballot-stream envelope wins when both exist (they
  // are the same for correct senders anyway).
  const Envelope* effective = &stored;
  if (!ballot && latest_ballot_[id] != nullptr) {
    effective = latest_ballot_[id].get();
  }
  bind_qset(id, effective->qset);
  return voted_more;
}

void ScpNode::bind_qset(ProcessId id, const fbqs::QSet& q) {
  const fbqs::QSetId cur = sender_qset_id_[id];
  // Cheap change test first: structural equality against the currently
  // bound qset skips the intern scan in the common unchanged case.
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
  reopen_all();
}

void ScpNode::reopen_all() {
  for (NomEntry& open : nom_open_) open.dirty = true;
  ballot_dirty_ = true;
}

bool ScpNode::support_views_consistent() const {
  const ProcessId self = host_.self();
  // Algorithm 1 from scratch and outside the engine: the reference closure
  // over every sender's bound qset (unbound senders have no slices).
  fbqs::FbqsSystem bound(peers_.universe_size());
  for (ProcessId m = 0; m < sender_qset_id_.size(); ++m) {
    if (sender_qset_id_[m] != fbqs::kNoQSetId) {
      bound.set_slices(m, engine_->qset(sender_qset_id_[m]));
    }
  }
  const auto view_ok = [&](const PredKey& key, const SupportView& view) {
    NodeSet fresh(peers_.universe_size());
    for (const auto* stream : {&latest_nom_, &latest_ballot_}) {
      for (const EnvelopePtr& env : *stream) {
        if (env != nullptr && pred_holds(key, env->statement)) {
          fresh.add(env->sender);
        }
      }
    }
    if (!(fresh == view.members)) return false;
    if (view.quorum.has_value() && view.quorum_epoch == rebind_epoch_ &&
        *view.quorum != bound.quorum_closure(view.members).contains(self)) {
      return false;
    }
    if (view.vblocking.has_value()) {
      NodeSet others = view.members;
      others.remove(self);
      if (*view.vblocking != qset_.blocked_by(others)) return false;
    }
    return true;
  };
  const auto unsorted =
      std::ranges::adjacent_find(ballot_support_, std::greater_equal<>(),
                                 &SupportTable::value_type::first);
  if (unsorted != ballot_support_.end()) return false;
  for (const auto& [key, view] : ballot_support_) {
    if (is_nomination_pred(key.cls) || !view_ok(key, view)) return false;
  }
  std::size_t built = 0;
  const auto entry_view_ok = [&](PredClass cls, Value x,
                                 const std::optional<SupportView>& view) {
    if (!view) return true;
    ++built;
    return view_ok(PredKey{cls, 0, x}, *view);
  };
  for (const NomEntry& open : nom_open_) {
    if (!entry_view_ok(PredClass::kNomVote, open.x, open.votes) ||
        !entry_view_ok(PredClass::kNomAccept, open.x, open.accepts)) {
      return false;
    }
  }
  return built <= nom_views_;
}

bool ScpNode::nomination_worklist_consistent() const {
  if (decided_) return nom_open_.empty();
  if (std::ranges::adjacent_find(nom_open_, std::greater_equal<>(),
                                 &NomEntry::x) != nom_open_.end()) {
    return false;
  }
  const auto listed = [this](Value v) {
    const auto it = std::ranges::lower_bound(nom_open_, v, {}, &NomEntry::x);
    return it != nom_open_.end() && it->x == v;
  };
  // S: our votes plus every value a stored NOMINATE names. A NOMINATE
  // handled after start() has been echoed: all it names is in our votes.
  ValueSet seen = nom_voted_;
  for (const EnvelopePtr& env : latest_nom_) {
    if (env == nullptr) continue;
    const auto& nom = std::get<NominateStmt>(env->statement);
    for (const auto* values : {&nom.voted, &nom.accepted}) {
      for (Value v : *values) {
        if (started_ && !nom_unechoed_.contains(env->sender) &&
            !nom_voted_.contains(v)) {
          return false;
        }
        seen.insert(v);
      }
    }
  }
  for (Value v : seen) {
    if (!candidates_.contains(v) && !listed(v)) return false;
  }
  const ProcessId self = host_.self();
  for (const NomEntry& open : nom_open_) {
    if (candidates_.contains(open.x)) return false;
    if (!seen.contains(open.x)) {
      // Listed but outside S: nobody may vote for or accept it.
      const PredKey votes{PredClass::kNomVote, 0, open.x};
      for (const auto* stream : {&latest_nom_, &latest_ballot_}) {
        for (const EnvelopePtr& env : *stream) {
          if (env != nullptr && pred_holds(votes, env->statement)) {
            return false;
          }
        }
      }
    }
    if (open.dirty) continue;
    // A clean entry's next check replays its last one from the views: each
    // verdict it reads must be cached and current (nullopt: it is not) and
    // false, and together they must charge what the entry recorded.
    fbqs::ServedVerdicts replay;
    const auto served = [&](const std::optional<SupportView>& view,
                            bool quorum) -> std::optional<bool> {
      if (!view) return std::nullopt;
      if (quorum && !view->members.contains(self)) return false;
      const std::optional<bool>& verdict =
          quorum ? view->quorum : view->vblocking;
      if (!verdict || (quorum && view->quorum_epoch != rebind_epoch_)) {
        return std::nullopt;
      }
      replay += fbqs::ServedVerdicts(view->members, quorum);
      return verdict;
    };
    if (nom_accepted_.contains(open.x)) {
      if (served(open.accepts, true) != false) return false;
    } else if (served(open.accepts, false) != false ||
               served(open.votes, true) != false) {
      return false;
    }
    if (!(replay == open.charge)) return false;
  }
  return true;
}

bool ScpNode::is_quorum_satisfying(SupportView& view,
                                   fbqs::ServedVerdicts& replay) {
  // The Algorithm-1 closure (drop members whose quorum set is not satisfied
  // by the remaining support) runs in the engine once per view and
  // assignment; repeats are served from the view.
  if (!view.members.contains(host_.self())) return false;
  const fbqs::ServedVerdicts served(view.members, /*quorum=*/true);
  replay += served;
  if (view.quorum.has_value() && view.quorum_epoch == rebind_epoch_) {
    engine_->count_served(served);
    return *view.quorum;
  }
  view.quorum =
      engine_->quorum_contains(view.members, host_.self(), sender_qset_id_);
  view.quorum_epoch = rebind_epoch_;
  return *view.quorum;
}

bool ScpNode::is_vblocking(SupportView& view, fbqs::ServedVerdicts& replay) {
  const fbqs::ServedVerdicts served(view.members, /*quorum=*/false);
  replay += served;
  if (view.vblocking.has_value()) {
    engine_->count_served(served);
    return *view.vblocking;
  }
  vblock_scratch_ = view.members;
  vblock_scratch_.remove(host_.self());
  view.vblocking = engine_->blocked_by(own_qset_id_, vblock_scratch_);
  return *view.vblocking;
}

bool ScpNode::ballot_accept(const PredKey& votes_or_accepts,
                            const PredKey& accepts) {
  return is_vblocking(support_view(accepts), ballot_charge_) ||
         is_quorum_satisfying(support_view(votes_or_accepts), ballot_charge_);
}

bool ScpNode::ballot_ratify(const PredKey& accepts) {
  return is_quorum_satisfying(support_view(accepts), ballot_charge_);
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
      if (ballot_dirty_) {
        changed |= step_ballot();
      } else {
        // Nothing the last pass read has changed, and it changed nothing:
        // a rerun would be served every verdict it counted.
        engine_->count_served(ballot_charge_);
      }
    }
  }
}

bool ScpNode::step_nomination() {
  bool changed = false;
  // Candidate values: everything anyone has mentioned that is not yet
  // confirmed (the work list; see the class comment). A value leaves the
  // list once confirmed; a clean entry is only charged.
  fbqs::ServedVerdicts clean;
  auto kept = nom_open_.begin();
  for (auto it = nom_open_.begin(); it != nom_open_.end(); ++it) {
    if (!it->dirty) {
      clean += it->charge;
    } else if (check_entry(*it, changed)) {
      continue;
    }
    if (kept != it) *kept = std::move(*it);
    ++kept;
  }
  nom_open_.erase(kept, nom_open_.end());
  engine_->count_served(clean);
  if (changed) emit_nomination();
  return changed;
}

bool ScpNode::check_entry(NomEntry& entry, bool& changed) {
  const Value x = entry.x;
  const bool was_accepted = nom_accepted_.contains(x);
  fbqs::ServedVerdicts replay;
  if (!was_accepted) {
    if (!is_vblocking(
            nomination_view(entry.accepts, PredClass::kNomAccept, x),
            replay) &&
        !is_quorum_satisfying(
            nomination_view(entry.votes, PredClass::kNomVote, x), replay)) {
      entry.dirty = false;
      entry.charge = replay;
      return false;
    }
    nom_accepted_.insert(x);
    nom_voted_.insert(x);
    changed = true;
  }
  if (is_quorum_satisfying(
          nomination_view(entry.accepts, PredClass::kNomAccept, x), replay)) {
    candidates_.insert(x);
    changed = true;
    return true;
  }
  // A value accepted just now is in our next NOMINATE, which moves us into
  // its kNomAccept view: the entry stays dirty.
  entry.dirty = !was_accepted;
  entry.charge = replay;
  return false;
}

Value ScpNode::composite_candidate() const {
  // Deterministic combine: maximum of the confirmed candidates.
  return candidates_.empty() ? own_value_ : candidates_.max();
}

bool ScpNode::maybe_start_ballot() {
  if (phase_ != Phase::kNominate) return false;

  Value value = kNoValue;
  if (!candidates_.empty()) {
    value = composite_candidate();
  } else {
    // Catch-up: if a v-blocking set has moved to the ballot protocol, adopt
    // the value of the highest working ballot among them. (This check runs
    // on every pass in this phase, so there is no replay to record.)
    fbqs::ServedVerdicts replay;
    if (!is_vblocking(support_view(PredKey{PredClass::kBallotStream, 0, 0}),
                      replay)) {
      return false;
    }
    Ballot best;
    for (const EnvelopePtr& env : latest_ballot_) {
      if (env == nullptr || env->sender == host_.self()) continue;
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
  // A pass that changes something stores our ballot statement, which marks
  // the step dirty again; one that does not is replayed by advance() from
  // the charge its checks leave in ballot_charge_.
  ballot_dirty_ = false;
  ballot_charge_ = {};
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
  for (const EnvelopePtr& env : latest_ballot_) {
    if (env == nullptr) continue;
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
        ballot_accept(PredKey{PredClass::kPrepareVote, beta.n, beta.x},
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
    if (ballot_ratify(PredKey{PredClass::kPrepareAccept, beta.n, beta.x})) {
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

const std::vector<std::uint32_t>& ScpNode::commit_boundaries(Value x) {
  std::vector<std::uint32_t>& ns = commit_boundaries_;
  ns.clear();
  auto push = [&ns](std::uint32_t n) {
    if (n > 0) ns.push_back(n);
  };
  if (c_.valid() && c_.x == x) {
    push(c_.n);
    push(h_.n);
  }
  for (const EnvelopePtr& env : latest_ballot_) {
    if (env == nullptr) continue;
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
        ballot_accept(PredKey{PredClass::kCommitVote, n, x},
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
    if (!ballot_ratify(PredKey{PredClass::kCommitAccept, n, x})) continue;
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
  // the nomination work list with its views.
  ballot_support_.clear();
  nom_open_.clear();
  nom_views_ = 0;
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
  NominateStmt nom{nom_voted_.values(), nom_accepted_.values()};
  const auto msg = sim::make_message<Envelope>(host_.self(), seq_, qset_,
                                               Statement{std::move(nom)});
  store_statement(std::static_pointer_cast<const Envelope>(msg), false);
  for (ProcessId peer : peers_) host_.host_send(peer, msg);
}

void ScpNode::emit_ballot() {
  ++seq_;
  const auto msg = sim::make_message<Envelope>(host_.self(), seq_, qset_,
                                               ballot_statement());
  store_statement(std::static_pointer_cast<const Envelope>(msg), false);
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
