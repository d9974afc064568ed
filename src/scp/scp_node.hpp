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
// verdicts: "a quorum for self" and "v-blocking for our qset". A check
// whose inputs have not changed since the view last asked costs one view
// lookup; only a view whose membership flipped, or (for the quorum
// verdict) a member whose qset binding changed, asks the engine again. The
// quorum verdict depends only on the view, self and the qsets bound to its
// members, so any rebind drops every quorum verdict at once (an epoch
// stamp, not a loop over the tables); the v-blocking verdict depends only
// on the view and our own qset, fixed from start(), so it survives
// rebinds. A served verdict is still reported to the engine's counters,
// so closure runs plus cache hits keep counting the node's quorum checks.
// The ballot candidates the ballot steps walk are likewise a member list,
// rebuilt only after a ballot statement was stored or b_ changed.
//
// Support views live in two tables, one per message stream: nomination
// predicates (nominate(x) votes/accepts) and ballot predicates (prepare,
// commit, ballot-stream membership). A NOMINATE never implies a ballot
// predicate and a ballot statement never implies a nomination one, so a
// stream's update re-evaluates only its own table, exactly.
//
// Nomination keeps its work list as state: `nom_open_` holds every value
// named by a stored NOMINATE, plus our own proposal, that is not yet a
// confirmed candidate. handle() and start() add to it, and each
// step_nomination() walks it in ascending order and drops a value once it
// is ratified. It equals the non-candidate part of S = our votes plus
// every value any stored NOMINATE names, so the walk issues the same engine
// queries in the same order as a walk over S recomputed from the envelope
// maps: values are only removed once confirmed, correct senders'
// NOMINATEs only grow, and every value named after start() is echoed into
// our own votes. The one exception is a Byzantine sender whose later
// NOMINATE drops a value we only saw before start(): it stays listed, but
// no stored statement supports it any more, so it can never be accepted
// (nomination_worklist_consistent() checks both properties).
//
// A received NOMINATE costs what it changes. Stored envelopes are shared
// pointers to the delivered messages (our own: to the message we send), not
// copies. A NOMINATE's lists are strictly ascending, so the sender's
// previous and new statement diff in one merge walk: only the nomination
// views whose membership changed are touched, and only values the sender
// did not name before are echoed. Views depend only on each sender's latest
// statement, so this leaves every view, and hence every engine query,
// exactly as a full re-test would. The echo is exact because every value of
// a NOMINATE handled after start() is already in our votes; a sender whose
// stored NOMINATE was buffered before start() gets one full walk instead.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
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
  /// copied. A NOMINATE whose lists are not strictly ascending is dropped.
  bool handle(ProcessId from, const sim::MessagePtr& msg);

  /// Must be called by the host when kScpBallotTimerId fires.
  void on_ballot_timer();

  bool decided() const { return decided_.has_value(); }
  Value decision() const;

  /// Externalization callback (fired once).
  std::function<void(Value)> on_decide;

  // ---- Introspection for tests and experiments ----
  std::uint32_t ballot_counter() const { return b_.n; }
  const std::set<Value>& candidates() const { return candidates_; }
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

  /// Latest ballot-protocol envelopes by sender (self included) — lets
  /// tests audit every statement this node currently believes / has
  /// emitted (e.g. the PREPARE commit-range invariant).
  const std::map<ProcessId, EnvelopePtr>& ballot_envelopes() const {
    return latest_ballot_;
  }
  /// Latest NOMINATE envelopes by sender (self included).
  const std::map<ProcessId, EnvelopePtr>& nomination_envelopes() const {
    return latest_nom_;
  }

  /// Debug: rebuilds every materialized support view from scratch (over
  /// both streams, so it also checks that a view's table is the only one
  /// its predicate can depend on) and compares against the incrementally
  /// maintained one, then recomputes every verdict the view would serve
  /// without touching the engine or its counters: a quorum verdict as the
  /// Algorithm-1 closure over QSet::satisfied_by with each member's bound
  /// qset (unbound members dropped), a v-blocking verdict as
  /// QSet::blocked_by on our own qset. True iff all agree (the from-scratch
  /// equivalence the unit suite pins).
  bool support_views_consistent() const;

  /// Debug: recomputes from the envelope maps the set S that `nom_open_`
  /// stands for (our votes plus every value a stored NOMINATE names),
  /// without touching the support views. True iff every value of S that is
  /// not a candidate is listed, no candidate is listed, every listed value
  /// outside S has no supporter in either stream (so it can never be
  /// accepted), and every value named by a stored NOMINATE that was handled
  /// after start() is in our votes (the echo). The list is empty once
  /// decided: nomination stops there.
  bool nomination_worklist_consistent() const;

  /// Test hook (see fbqs::QuorumEngine::debug_rehash): scrambles the
  /// support tables' bucket order. Behaviour must be unchanged — the loops
  /// over them are annotated order-insensitive and the determinism
  /// regression suite pins it. const because the tables are a mutable cache
  /// and the ledger hands out const slot pointers.
  void debug_rehash(std::size_t bucket_count) const {
    nom_support_.rehash(bucket_count);
    ballot_support_.rehash(bucket_count);
  }

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
    bool operator==(const PredKey&) const = default;
  };
  struct PredKeyHash {
    std::size_t operator()(const PredKey& k) const;
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

  bool is_quorum_satisfying(const PredKey& pred) const;
  bool is_vblocking(const PredKey& pred) const;
  bool federated_accept(const PredKey& votes_or_accepts,
                        const PredKey& accepts) const;
  bool federated_ratify(const PredKey& accepts) const;

  /// The materialized support view for a predicate. Built by one scan of
  /// the predicate's stream on first query, then kept fresh by
  /// store_statement().
  SupportView& support_view(const PredKey& key) const;

  /// Makes `env` its sender's latest statement of its stream, refreshes
  /// that stream's support views, then the sender's effective qset id.
  /// Returns the statement it replaced (null on the sender's first). A
  /// NOMINATE touches only the views of values where it differs from the
  /// one it replaced; a ballot statement re-tests every ballot view. A view
  /// whose membership flips drops its verdicts.
  EnvelopePtr store_statement(EnvelopePtr env);

  /// Re-binds the sender's effective qset (ballot stream wins) when it
  /// differs structurally from the bound one. Any change, the first
  /// binding included, bumps rebind_epoch_, which drops every cached
  /// quorum verdict.
  void bind_qset(ProcessId id, const fbqs::QSet& q);

  void advance();          // run protocol steps to fixpoint
  bool step_nomination();  // returns true if state changed
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
  std::vector<std::uint32_t> commit_boundaries(Value x) const;
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
  std::set<Value> nom_voted_;
  std::set<Value> nom_accepted_;
  std::set<Value> candidates_;
  /// step_nomination()'s work list: values named by a stored NOMINATE, plus
  /// our own proposal, that are not yet candidates (ascending, as walked).
  std::set<Value> nom_open_;

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

  /// Senders whose stored NOMINATE was handled before start(), so was never
  /// echoed into our votes; their next NOMINATE echoes every value it names.
  NodeSet nom_unechoed_;

  // Nomination and ballot protocols are separate message streams (as in
  // stellar-core): a sender's latest envelope of each kind is stored
  // independently, so progress on one never erases evidence for the other.
  std::map<ProcessId, EnvelopePtr> latest_nom_;
  std::map<ProcessId, EnvelopePtr> latest_ballot_;

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
  /// Materialized support views, one table per stream (nomination
  /// predicates / everything else); `mutable` because they are a cache
  /// over the envelope maps, lazily extended by const query paths.
  mutable std::unordered_map<PredKey, SupportView, PredKeyHash> nom_support_;
  mutable std::unordered_map<PredKey, SupportView, PredKeyHash>
      ballot_support_;
  /// is_vblocking()'s scratch copy of a support view without ourselves.
  mutable NodeSet vblock_scratch_;
  /// Last stats snapshot flushed to SimMetrics (owned-engine nodes only).
  fbqs::QuorumEngineStats flushed_;
};

}  // namespace scup::scp
