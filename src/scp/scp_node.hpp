// Single-slot SCP state machine: nomination protocol + ballot protocol with
// federated voting (vote → accept → confirm) over the node's quorum set.
//
// Faithfulness notes (vs. the SCP whitepaper / stellar-core):
//  - Quorum checks use the Algorithm-1 closure over the quorum sets attached
//    to envelopes; acceptance uses quorum OR v-blocking, confirmation uses
//    quorum ratification.
//  - Nomination uses "echo everything seen": every value appearing in a
//    received NOMINATE is added to our own voted set. This keeps the
//    protocol leaderless and convergent; the composite value of the
//    confirmed candidate set is their maximum (any deterministic combine
//    works for the paper's theorems).
//  - Ballot bumping: a timer that grows linearly with the ballot counter;
//    after GST all correct nodes eventually share a long enough round to
//    confirm commit (standard partial-synchrony argument).
//  - A node stuck in nomination adopts the value of the highest ballot of a
//    v-blocking set that has moved on (stellar-core's catch-up rule), which
//    lets non-sink nodes follow the sink.
//
// Evaluation strategy: federated-voting checks run on a fbqs::QuorumEngine
// (shared across slots when hosted by a LedgerMultiplexer). Instead of
// re-gathering supporters from the envelope maps on every check, the node
// maintains materialized support sets per queried predicate — refreshed
// incrementally as envelopes arrive — and each view caches its two
// verdicts: "a quorum for self" and "v-blocking for our qset". Only a view
// whose membership flipped, or (for the quorum verdict) a member whose qset
// binding changed, asks the engine again. The quorum verdict depends only
// on the view, self and the qsets bound to its members, so any rebind drops
// every quorum verdict at once (an epoch stamp, not a loop over the views);
// the v-blocking verdict depends only on the view and our own qset, fixed
// from start(), so it survives rebinds. A served verdict is still reported
// to the engine's counters, so closure runs plus cache hits keep counting
// the node's quorum checks. The ballot candidates the ballot steps walk are
// likewise a member list, rebuilt only after a ballot statement was stored
// or b_ changed.
//
// A check that changed nothing when it last ran, and whose inputs have not
// changed since, is not re-run at all: it would ask the same views the same
// questions and be served every answer. Each nomination work-list entry, and the ballot step as a whole,
// keeps a dirty bit and the served verdicts of its last run
// (fbqs::ServedVerdicts); a clean one reports those to the engine in one
// batch without reading a view. So every engine evaluation runs in the
// order a full re-walk runs it, and every verdict a full re-walk would
// serve is still counted. The ballot step is dirty after a ballot statement
// was stored (ours included), a rebind or the view-cap drop.
//
// Support views live with their stream: a nomination predicate's
// (nominate(x) votes/accepts) in the work-list entry of x, ballot
// predicates' (prepare, commit, ballot-stream membership) in one table. A
// NOMINATE never implies a ballot predicate and a ballot statement never
// implies a nomination one, so a stream's update re-evaluates only its own
// views, exactly. The ballot table is a vector sorted by predicate: a
// lookup is a binary search, a predicate's first query inserts its view in
// place, and walks run in predicate order.
//
// Nomination keeps its work list as state: `nom_open_` has an entry for
// every value named by a stored NOMINATE, plus our own proposal, that is
// not yet a confirmed candidate. handle() and start() add to it, and each
// step_nomination() walks it in ascending order, re-checks the dirty
// entries and drops a value once it is ratified. An entry is dirty from
// when it is listed until a check of it changes nothing, and again once a
// stored NOMINATE changes whether its sender names or accepts the value,
// or (every entry) after a rebind from either stream or the view-cap drop.
// The list equals the non-candidate part of S = our votes plus every value
// any stored NOMINATE names, so the walk issues the same engine queries in
// the same order as a walk over S recomputed from the envelope maps:
// values are only removed once confirmed, correct senders' NOMINATEs only
// grow, and every value named after start() is echoed into our own votes.
// The one exception is a Byzantine sender whose later NOMINATE drops a
// value we only saw before start(): it stays listed, but no stored
// statement supports it any more, so it can never be accepted
// (nomination_worklist_consistent() checks both properties, and that a
// clean entry's next check would be served whole for its recorded charge).
//
// A received NOMINATE costs what it changes. Stored envelopes are shared
// pointers to the delivered messages (our own: to the message we send), not
// copies, kept in one slot per sender and stream (null = nothing stored):
// finding a sender's statement is an index, walks over them run in
// ascending sender order, and handle() drops a stale envelope on that
// lookup before it reads anything else. A NOMINATE's lists are strictly
// ascending, so the sender's previous and new statement diff in one merge
// walk that steps through the (equally ascending) work list: only the
// entries of values whose naming or acceptance changed are touched, and
// only values the sender did not name before are echoed. Views depend only
// on each sender's latest statement, so this leaves every view, and hence
// every engine query, exactly as a full re-test would. The echo is exact
// because every value of a NOMINATE handled after start() is already in our
// votes; a sender whose stored NOMINATE was buffered before start() has all
// the values of its next one echoed instead.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/node_set.hpp"
#include "fbqs/qset.hpp"
#include "fbqs/quorum_engine.hpp"
#include "scp/envelope.hpp"
#include "sim/host.hpp"

namespace scup::scp {

/// Timer id used by ScpNode; the composed host must route this id's
/// on_timer back into on_ballot_timer().
inline constexpr int kScpBallotTimerId = 100;

struct ScpConfig {
  /// Base ballot timeout; round k times out after base * (k+1).
  SimTime ballot_timeout_base = 100;
  /// Upper bound on the per-round timeout growth.
  std::uint32_t timeout_growth_cap = 50;
};

/// Adds the engine-stat growth since `last` to the host's SimMetrics
/// protocol counters and advances `last`. Called by whoever owns the engine
/// (a standalone ScpNode, or the LedgerMultiplexer for its shared engine).
void flush_quorum_counters(sim::ProtocolHost& host,
                           const fbqs::QuorumEngineStats& now,
                           fbqs::QuorumEngineStats& last);

/// A set of values as one strictly ascending vector: membership is a binary
/// search, walks are contiguous, and the vector is a NominateStmt list as it
/// stands. Nomination's sets hold the values of one slot, so they stay small.
class ValueSet {
 public:
  bool contains(Value v) const {
    return std::binary_search(values_.begin(), values_.end(), v);
  }
  /// Adds `v`; true iff it was not there.
  bool insert(Value v) {
    const auto it = std::lower_bound(values_.begin(), values_.end(), v);
    if (it != values_.end() && *it == v) return false;
    values_.insert(it, v);
    return true;
  }
  bool empty() const { return values_.empty(); }
  /// The highest value; the set must not be empty.
  Value max() const { return values_.back(); }
  const std::vector<Value>& values() const { return values_; }
  std::vector<Value>::const_iterator begin() const { return values_.begin(); }
  std::vector<Value>::const_iterator end() const { return values_.end(); }

 private:
  std::vector<Value> values_;
};

class ScpNode {
 public:
  /// A stored statement: shares the delivered (or sent) message.
  using EnvelopePtr = std::shared_ptr<const Envelope>;

  /// `universe` is the total number of process ids (needed at construction
  /// time, before the host is attached to a simulation). `engine` is the
  /// shared quorum-evaluation layer; when null the node owns a private one
  /// (and flushes its counters to the host itself).
  ScpNode(sim::ProtocolHost& host, std::size_t universe, fbqs::QSet qset,
          Value own_value, ScpConfig config = {},
          fbqs::QuorumEngine* engine = nullptr);

  /// Replaces the quorum set (used when slices only become known after the
  /// sink detector returns). Must be called before start().
  void set_qset(fbqs::QSet qset);

  /// Replaces the proposal value (used by the ledger multiplexer, which
  /// learns a slot's proposal only when the previous slot closes). Must be
  /// called before start().
  void set_proposal(Value value);

  /// Adds a peer; if already started, our latest envelope is retransmitted
  /// to it so late-discovered processes catch up.
  void add_peer(ProcessId peer);
  const NodeSet& peers() const { return peers_; }

  /// Begins nomination (votes for own value).
  void start();
  bool started() const { return started_; }

  /// Feeds a received message; returns true if consumed (it was an SCP
  /// envelope). A consumed envelope is stored by sharing `msg` (an aliasing
  /// pointer to an envelope nested in a larger message works too), never
  /// copied. Dropped without touching any state: an envelope whose sender
  /// is outside the universe, a stale one (checked before anything reads
  /// its statement), and a NOMINATE whose lists are not strictly ascending.
  bool handle(ProcessId from, const sim::MessagePtr& msg);

  /// Must be called by the host when kScpBallotTimerId fires.
  void on_ballot_timer();

  bool decided() const { return decided_.has_value(); }
  Value decision() const;

  /// Externalization callback (fired once).
  std::function<void(Value)> on_decide;

  // ---- Introspection for tests and experiments ----
  const ValueSet& candidates() const { return candidates_; }
  std::size_t envelopes_emitted() const { return seq_; }

  enum class Phase { kNominate, kPrepare, kConfirm, kExternalize };
  Phase phase() const { return phase_; }

  const fbqs::QuorumEngine& engine() const { return *engine_; }

  /// Per-sender budget of qset *rebinds* (announcing a structurally new
  /// qset after the first binding). Correct senders rebind at most once —
  /// when their ballot stream takes over from nomination — while a
  /// Byzantine sender rotating a fresh qset per envelope would otherwise
  /// grow the engine's intern table without bound. Past the budget the
  /// sender keeps its current binding.
  static constexpr std::size_t kMaxQsetRebinds = 8;

  /// Cap on materialized support views (both streams together, a retired
  /// work-list entry's views included): past it the next stored statement
  /// drops every view, and each is rebuilt on its next query (bounds memory
  /// against ballot churn; never hit in healthy runs).
  static constexpr std::size_t kMaxTrackedPredicates = 4096;

  /// Latest ballot-protocol envelope of each sender (self included),
  /// indexed by sender id, null where none is stored — lets tests audit
  /// every statement this node currently believes / has emitted (e.g. the
  /// PREPARE commit-range invariant).
  const std::vector<EnvelopePtr>& ballot_envelopes() const {
    return latest_ballot_;
  }
  /// Latest NOMINATE envelope of each sender (self included), likewise.
  const std::vector<EnvelopePtr>& nomination_envelopes() const {
    return latest_nom_;
  }

  /// Debug: checks that the ballot table is strictly ascending by predicate
  /// (what its binary searches assume), rebuilds every materialized support
  /// view from scratch (over both streams, so it also checks that a view's
  /// stream is the only one its predicate can depend on) and compares
  /// against the incrementally maintained one, then recomputes every
  /// verdict the view would serve without touching the engine or its
  /// counters: a quorum verdict as fbqs::FbqsSystem::quorum_closure over
  /// each member's bound qset (unbound members dropped), a v-blocking
  /// verdict as QSet::blocked_by on our own qset. True iff all agree (the
  /// from-scratch equivalence the unit suite pins).
  bool support_views_consistent() const;

  /// Debug: checks that `nom_open_` is strictly ascending by value and
  /// recomputes from the envelope maps the set S it stands for (our votes
  /// plus every value a stored NOMINATE names). True iff every value of S
  /// that is not a candidate is listed, no candidate is listed, every
  /// listed value outside S has no supporter in either stream (so it can
  /// never be accepted), and every value named by a stored NOMINATE that was
  /// handled after start() is in our votes (the echo). The list is empty
  /// once decided: nomination stops there. Then each clean entry's next
  /// check is replayed from its views without touching the engine: false if
  /// it would find a verdict missing or stale, accept or ratify the value,
  /// or charge the engine anything but the entry's recorded charge.
  bool nomination_worklist_consistent() const;

 private:
  // -- federated voting over stored envelopes (self included) --

  /// A predicate over statements, in first-order form so support for it can
  /// be materialized and updated incrementally: class + (n, x) parameters.
  enum class PredClass : std::uint8_t {
    kNomVote,         // votes-or-accepts nominate(x)
    kNomAccept,       // accepts nominate(x)
    kPrepareVote,     // votes prepare((n,x)) or accepts prepared((n,x))
    kPrepareAccept,   // accepts prepared((n,x))
    kCommitVote,      // votes commit(n,x) or accepts commit(n,x)
    kCommitAccept,    // accepts commit(n,x)
    kBallotStream,    // has moved to the ballot protocol (any statement)
  };
  struct PredKey {
    PredClass cls = PredClass::kBallotStream;
    std::uint32_t n = 0;
    Value x = 0;
    auto operator<=>(const PredKey&) const = default;
  };

  static bool pred_holds(const PredKey& key, const Statement& s);
  static bool is_nomination_pred(PredClass cls) {
    return cls == PredClass::kNomVote || cls == PredClass::kNomAccept;
  }

  /// A materialized support view: which senders' current statements imply
  /// a predicate, and the two federated-voting verdicts over them (unknown
  /// until first asked, dropped when a sender's membership flips).
  struct SupportView {
    NodeSet members;
    /// `members` is a quorum for self; served while `quorum_epoch` equals
    /// rebind_epoch_ (a rebind changes the qsets the closure reads).
    std::optional<bool> quorum;
    std::uint64_t quorum_epoch = 0;
    /// `members` without self v-block our own qset.
    std::optional<bool> vblocking;
  };
  /// The ballot stream's support views, strictly ascending by predicate.
  using SupportTable = std::vector<std::pair<PredKey, SupportView>>;

  /// One value on the nomination work list and the state of its check.
  struct NomEntry {
    explicit NomEntry(Value value) : x(value) {}

    Value x;
    /// Its kNomVote / kNomAccept support views; empty until first queried,
    /// and again after the view-cap drop.
    std::optional<SupportView> votes;
    std::optional<SupportView> accepts;
    /// False while the entry's next check would be its last one replayed:
    /// every verdict served from the views, nothing accepted or ratified.
    bool dirty = true;
    /// What that replay charges the engine's counters.
    fbqs::ServedVerdicts charge;
  };

  /// The two federated-voting checks on one view: `view.members` is a
  /// quorum for self, or without self v-blocks our qset. A cached verdict
  /// is served (and counted), otherwise the engine is asked and the verdict
  /// cached. Either way `replay` gains what asking again would charge once
  /// the verdict is cached. (A view without self is no quorum for it, at no
  /// charge.)
  bool is_quorum_satisfying(SupportView& view, fbqs::ServedVerdicts& replay);
  bool is_vblocking(SupportView& view, fbqs::ServedVerdicts& replay);
  /// Accept / ratify over ballot predicates; `ballot_charge_` gains the
  /// replay charges.
  bool ballot_accept(const PredKey& votes_or_accepts, const PredKey& accepts);
  bool ballot_ratify(const PredKey& accepts);

  /// A fresh support view for `key`: one scan of the predicate's stream.
  /// Counted as a support rebuild.
  SupportView build_view(const PredKey& key);
  /// The materialized support view for a ballot predicate. Built on first
  /// query and inserted at its sorted position, then kept fresh by
  /// store_statement(). That insert can move the table, so use the
  /// reference before the next table access.
  SupportView& support_view(const PredKey& key);
  /// An entry's view in `slot` (kNomVote or kNomAccept of `x`), built on
  /// first query.
  SupportView& nomination_view(std::optional<SupportView>& slot,
                               PredClass cls, Value x);

  /// Makes `env` its sender's latest statement of its stream, refreshes
  /// that stream's support views, then the sender's effective qset id. A
  /// NOMINATE touches only the work-list entries of values where it differs
  /// from the one it replaced, and marks them dirty; a ballot statement
  /// re-tests every ballot view. A view whose membership flips drops its
  /// verdicts. For a `received` NOMINATE the same merge walk lists its
  /// values and echoes them (see handle()); returns true iff that added a
  /// value to our votes.
  bool store_statement(EnvelopePtr env, bool received);

  /// Re-binds the sender's effective qset (ballot stream wins) when it
  /// differs structurally from the bound one. Any change, the first
  /// binding included, bumps rebind_epoch_, which drops every cached
  /// quorum verdict, and marks every check dirty.
  void bind_qset(ProcessId id, const fbqs::QSet& q);
  /// Marks every work-list entry and the ballot step dirty.
  void reopen_all();

  void advance();          // run protocol steps to fixpoint
  bool step_nomination();  // returns true if state changed
  /// Checks one dirty work-list entry: accept, then ratify. Returns true
  /// iff the value was ratified; sets `changed` if anything changed.
  bool check_entry(NomEntry& entry, bool& changed);
  bool step_ballot();
  bool attempt_accept_prepared();
  bool attempt_confirm_prepared();
  bool attempt_accept_commit();
  bool attempt_confirm_commit();
  bool maybe_start_ballot();

  void emit_nomination();  // store + broadcast our nomination envelope
  void emit_ballot();      // store + broadcast our ballot envelope
  Statement ballot_statement() const;
  Value composite_candidate() const;
  /// Every valid ballot named by b_ or a stored ballot statement, highest
  /// first, without repeats; rebuilt only when one of those changed.
  const std::vector<Ballot>& candidate_ballots();
  /// Every counter our commit range or a stored ballot statement names for
  /// value `x`, ascending, without repeats (a reused member list).
  const std::vector<std::uint32_t>& commit_boundaries(Value x);
  void arm_ballot_timer();
  void flush_counters();

  sim::ProtocolHost& host_;
  fbqs::QSet qset_;
  Value own_value_;
  ScpConfig config_;

  NodeSet peers_;
  bool started_ = false;
  std::uint64_t seq_ = 0;

  // Nomination state.
  ValueSet nom_voted_;
  ValueSet nom_accepted_;
  ValueSet candidates_;
  /// step_nomination()'s work list: values named by a stored NOMINATE, plus
  /// our own proposal, that are not yet candidates (strictly ascending by
  /// value, as walked).
  std::vector<NomEntry> nom_open_;
  /// Nomination views built since the last drop, a retired entry's
  /// included: what kMaxTrackedPredicates counts for the nomination stream.
  std::size_t nom_views_ = 0;

  // Ballot state.
  Phase phase_ = Phase::kNominate;
  Ballot b_;        // current ballot
  Ballot p_;        // highest accepted prepared
  Ballot p_prime_;  // highest accepted prepared incompatible with p_
  Ballot h_;        // highest confirmed prepared
  Ballot c_;        // lowest ballot we vote commit for
  std::uint32_t commit_c_n_ = 0;  // accepted commit range (CONFIRM phase)
  std::uint32_t commit_h_n_ = 0;
  std::uint32_t ext_c_n_ = 0;  // confirmed commit range (EXTERNALIZE)
  std::uint32_t ext_h_n_ = 0;
  std::optional<Value> decided_;
  /// candidate_ballots()'s list, the b_ it was built for, and whether a
  /// ballot statement was stored since.
  std::vector<Ballot> candidate_ballots_;
  Ballot candidate_ballots_b_;
  bool candidate_ballots_stale_ = true;
  std::vector<std::uint32_t> commit_boundaries_;
  /// False while the next ballot step would replay its last pass, which
  /// changed nothing; ballot_charge_ is what that pass charged (and what
  /// the running pass has charged so far).
  bool ballot_dirty_ = true;
  fbqs::ServedVerdicts ballot_charge_;

  /// Senders whose stored NOMINATE was handled before start(), so was never
  /// echoed into our votes; their next NOMINATE echoes every value it names.
  NodeSet nom_unechoed_;

  // Nomination and ballot protocols are separate message streams (as in
  // stellar-core): a sender's latest envelope of each kind is stored
  // independently, so progress on one never erases evidence for the other.
  // One slot per process id, sized to the universe; null = none stored.
  std::vector<EnvelopePtr> latest_nom_;
  std::vector<EnvelopePtr> latest_ballot_;

  // -- quorum evaluation layer --
  std::unique_ptr<fbqs::QuorumEngine> owned_engine_;  // null when shared
  fbqs::QuorumEngine* engine_;
  fbqs::QSetId own_qset_id_ = fbqs::kNoQSetId;
  /// Effective interned qset per sender (ballot-stream envelope wins; they
  /// are the same for correct senders anyway). kNoQSetId = never heard.
  std::vector<fbqs::QSetId> sender_qset_id_;
  /// Rebinds consumed per sender, capped at kMaxQsetRebinds (fits a byte).
  std::vector<std::uint8_t> qset_rebinds_;
  /// Bumped by every change to sender_qset_id_; a quorum verdict stamped
  /// with an older value is unknown.
  std::uint64_t rebind_epoch_ = 0;
  /// Materialized ballot-predicate support views (nomination ones live in
  /// their work-list entries).
  SupportTable ballot_support_;
  /// is_vblocking()'s scratch copy of a support view without ourselves.
  NodeSet vblock_scratch_;
  /// Last stats snapshot flushed to SimMetrics (owned-engine nodes only).
  fbqs::QuorumEngineStats flushed_;
};

}  // namespace scup::scp
