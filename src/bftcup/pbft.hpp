// Single-shot PBFT-style Byzantine consensus among a known member set.
//
// This is the consensus protocol the BFT-CUP construction runs among the
// discovered sink members (the paper's baseline, Theorem 1): three phases
// (pre-prepare / prepare / commit) with quorums of q = ⌈(|S|+f+1)/2⌉ and a
// certified view change. Signature simulation (sim::Notary) makes prepare
// certificates and view-change certificates unforgeable, which is what
// carries safety across views exactly as in PBFT.
//
// Quorum arithmetic: with |S| >= 2f+1 correct members plus at most f faulty
// ones, any two quorums intersect in > f processes (hence in a correct one)
// and a fully correct quorum always exists — the same inequalities as the
// paper's Theorem 4.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/node_set.hpp"
#include "sim/host.hpp"
#include "sim/message.hpp"
#include "sim/wire.hpp"

namespace scup::bftcup {

/// Frame ids 32..36 (see the allocation table in sim/wire.hpp callers).
inline constexpr std::uint16_t kWireTypePrePrepare = 32;
inline constexpr std::uint16_t kWireTypePrepare = 33;
inline constexpr std::uint16_t kWireTypeCommit = 34;
inline constexpr std::uint16_t kWireTypeViewChange = 35;
inline constexpr std::uint16_t kWireTypeNewView = 36;

inline constexpr int kPbftTimerId = 200;

struct PbftConfig {
  SimTime view_timeout_base = 400;
  std::uint32_t timeout_growth_cap = 32;
  /// Admission bound on per-message view numbers: anything naming a view
  /// more than this far ahead of the local view is dropped before it can
  /// allocate bookkeeping. Correct members advance one view per timeout,
  /// so a generous window never drops their traffic; a Byzantine member
  /// naming view 2^31 no longer allocates state for it.
  std::uint32_t view_window = 64;
};

// ---- messages ----

struct SignedToken {
  ProcessId signer = kInvalidProcess;
  std::uint64_t token = 0;
};

struct PrePrepareMsg final : sim::Message {
  PrePrepareMsg(std::uint32_t v, Value val) : view(v), value(val) {}
  std::uint32_t view;
  Value value;
  std::string_view type_name() const override { return "pbft.preprepare"; }
  static constexpr std::uint16_t kWireType = kWireTypePrePrepare;
  std::uint16_t wire_type() const override { return kWireType; }
  void wire_encode(sim::WireWriter& w) const override {
    w.u32(view);
    w.u64(value);
  }
  static sim::MessagePtr wire_decode(sim::WireReader& r) {
    const std::uint32_t view = r.u32();
    const Value value = r.u64();
    if (!r.ok()) return nullptr;
    return sim::make_message<PrePrepareMsg>(view, value);
  }
};

struct PrepareMsg final : sim::Message {
  PrepareMsg(std::uint32_t v, Value val, std::uint64_t t)
      : view(v), value(val), token(t) {}
  std::uint32_t view;
  Value value;
  std::uint64_t token;  // sign(sender, prepare_hash(view, value))
  std::string_view type_name() const override { return "pbft.prepare"; }
  static constexpr std::uint16_t kWireType = kWireTypePrepare;
  std::uint16_t wire_type() const override { return kWireType; }
  void wire_encode(sim::WireWriter& w) const override {
    w.u32(view);
    w.u64(value);
    w.u64(token);
  }
  static sim::MessagePtr wire_decode(sim::WireReader& r) {
    const std::uint32_t view = r.u32();
    const Value value = r.u64();
    const std::uint64_t token = r.u64();
    if (!r.ok()) return nullptr;
    return sim::make_message<PrepareMsg>(view, value, token);
  }
};

struct CommitMsg final : sim::Message {
  CommitMsg(std::uint32_t v, Value val, std::uint64_t t)
      : view(v), value(val), token(t) {}
  std::uint32_t view;
  Value value;
  std::uint64_t token;  // sign(sender, commit_hash(view, value))
  std::string_view type_name() const override { return "pbft.commit"; }
  static constexpr std::uint16_t kWireType = kWireTypeCommit;
  std::uint16_t wire_type() const override { return kWireType; }
  void wire_encode(sim::WireWriter& w) const override {
    w.u32(view);
    w.u64(value);
    w.u64(token);
  }
  static sim::MessagePtr wire_decode(sim::WireReader& r) {
    const std::uint32_t view = r.u32();
    const Value value = r.u64();
    const std::uint64_t token = r.u64();
    if (!r.ok()) return nullptr;
    return sim::make_message<CommitMsg>(view, value, token);
  }
};

/// A view-change vote: "I move to view `new_view`; the highest value I
/// prepared was `prepared_value` in view `prepared_view` (0 = none), and
/// here is the prepare certificate proving it."
struct ViewChangeRecord {
  ProcessId sender = kInvalidProcess;
  std::uint32_t new_view = 0;
  std::uint32_t prepared_view = 0;
  Value prepared_value = kNoValue;
  std::vector<SignedToken> prepare_cert;  // q tokens when prepared_view > 0
  std::uint64_t token = 0;  // sign(sender, viewchange_hash(...))
};

/// ViewChangeRecord payload codec, shared by ViewChangeMsg and the
/// NewViewMsg justification list.
void wire_put_viewchange_record(sim::WireWriter& w, const ViewChangeRecord& r);
std::optional<ViewChangeRecord> wire_get_viewchange_record(sim::WireReader& r);

struct ViewChangeMsg final : sim::Message {
  explicit ViewChangeMsg(ViewChangeRecord r) : record(std::move(r)) {}
  ViewChangeRecord record;
  std::string_view type_name() const override { return "pbft.viewchange"; }
  static constexpr std::uint16_t kWireType = kWireTypeViewChange;
  std::uint16_t wire_type() const override { return kWireType; }
  void wire_encode(sim::WireWriter& w) const override {
    wire_put_viewchange_record(w, record);
  }
  static sim::MessagePtr wire_decode(sim::WireReader& r) {
    std::optional<ViewChangeRecord> record = wire_get_viewchange_record(r);
    if (!record.has_value()) return nullptr;
    return sim::make_message<ViewChangeMsg>(std::move(*record));
  }
};

/// New leader's view installation: q view-change records justifying the
/// chosen value.
struct NewViewMsg final : sim::Message {
  NewViewMsg(std::uint32_t v, Value val, std::vector<ViewChangeRecord> j)
      : view(v), value(val), justification(std::move(j)) {}
  std::uint32_t view;
  Value value;
  std::vector<ViewChangeRecord> justification;
  std::string_view type_name() const override { return "pbft.newview"; }
  static constexpr std::uint16_t kWireType = kWireTypeNewView;
  std::uint16_t wire_type() const override { return kWireType; }
  void wire_encode(sim::WireWriter& w) const override {
    w.u32(view);
    w.u64(value);
    w.u32(static_cast<std::uint32_t>(justification.size()));
    for (const ViewChangeRecord& record : justification) {
      wire_put_viewchange_record(w, record);
    }
  }
  static sim::MessagePtr wire_decode(sim::WireReader& r) {
    const std::uint32_t view = r.u32();
    const Value value = r.u64();
    const std::uint32_t count = r.u32();
    // A record is at least 32 bytes, so a forged count cannot reserve an
    // oversized justification vector.
    if (!r.fits(count, 32)) {
      r.fail();
      return nullptr;
    }
    std::vector<ViewChangeRecord> justification;
    justification.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      std::optional<ViewChangeRecord> record = wire_get_viewchange_record(r);
      if (!record.has_value()) return nullptr;
      justification.push_back(std::move(*record));
    }
    if (!r.ok()) return nullptr;
    return sim::make_message<NewViewMsg>(view, value, std::move(justification));
  }
};

/// True iff `msg` is one of the five PBFT message types above.
bool is_pbft_message(const sim::Message& msg);

/// The view a PBFT message names (a view change's new view); 0 for a
/// message of any other type.
std::uint32_t pbft_view(const sim::Message& msg);

// ---- statement hashes (domain-separated) ----

std::uint64_t prepare_hash(std::uint32_t view, Value value);
std::uint64_t commit_hash(std::uint32_t view, Value value);
std::uint64_t viewchange_hash(std::uint32_t new_view,
                              std::uint32_t prepared_view,
                              Value prepared_value);

// ---- the consensus state machine ----

class PbftConsensus {
 public:
  /// `members` is the (globally agreed) participant set — for BFT-CUP this
  /// is the discovered sink. self must be a member.
  PbftConsensus(sim::ProtocolHost& host, NodeSet members,
                PbftConfig config = {});

  void start(Value proposal);
  bool handle(ProcessId from, const sim::Message& msg);
  void on_view_timer();  // host must route kPbftTimerId here

  bool decided() const { return decided_.has_value(); }
  Value decision() const;
  std::uint32_t view() const { return view_; }
  std::size_t quorum_size() const { return q_; }
  ProcessId leader_of(std::uint32_t view) const;

  /// Test hook: total live bookkeeping map nodes (vote slots and their
  /// token entries, first-vote records, view-change books). The Byzantine
  /// memory-bomb regression test asserts this stays within the documented
  /// bound no matter what a faulty member signs and sends.
  std::size_t bookkeeping_size() const;

  std::function<void(Value)> on_decide;

 private:
  struct Slot {  // per (view, value) vote bookkeeping
    std::map<ProcessId, std::uint64_t> prepares;
    std::map<ProcessId, std::uint64_t> commits;
  };

  void broadcast(const sim::MessagePtr& msg);
  void enter_view(std::uint32_t view);
  void accept_proposal(std::uint32_t view, Value value);
  void check_prepared(std::uint32_t view, Value value);
  void check_committed(std::uint32_t view, Value value);
  void send_view_change(std::uint32_t new_view);
  void try_lead_new_view(std::uint32_t view);
  bool validate_record(const ViewChangeRecord& r) const;
  void arm_timer();
  bool view_admissible(std::uint32_t view) const;
  Slot* admit_vote(std::uint32_t view, Value value, ProcessId voter);

  sim::ProtocolHost& host_;
  NodeSet members_;
  std::vector<ProcessId> sorted_members_;
  std::size_t f_;
  std::size_t q_;
  PbftConfig config_;

  Value proposal_ = kNoValue;
  bool started_ = false;
  std::uint32_t view_ = 0;
  std::optional<Value> accepted_value_;          // pre-prepared in view_
  std::uint32_t prepared_view_ = 0;              // highest prepared
  Value prepared_value_ = kNoValue;
  std::vector<SignedToken> prepared_cert_;
  std::optional<Value> decided_;
  std::optional<std::uint32_t> led_view_;  // last view we sent a NewView for

  // Byzantine-memory bounds on the vote bookkeeping below (this was an
  // unbounded-allocation hole: every signed prepare/commit/view-change for
  // an arbitrary (view, value) used to allocate a fresh map node):
  //   * views are admitted only within [0, view_ + config_.view_window]
  //     (view_admissible), and view_ itself only advances through f+1
  //     genuine member timeouts — Byzantine members alone (≤ f) cannot
  //     push it;
  //   * each member's first signed vote per view fixes its value — a later
  //     vote for a different value in the same view is equivocation and is
  //     dropped (admit_vote/first_vote_), so a view holds at most |S|+1
  //     slots and each slot at most |S| entries per phase;
  //   * view-change records below view_ are useless and GC'd (enter_view).
  //     Vote slots for older views are kept — a late commit quorum for a
  //     view we already left is still a legitimate, safe decision;
  //   * our own ViewChange and NewView guards hold no per-view entries:
  //     they read view_ and led_view_.
  // Net: O((view_ + view_window) × |S|²) tokens, bounded by elapsed
  // protocol time instead of by attacker message volume.
  std::map<std::pair<std::uint32_t, Value>, Slot> slots_;
  std::map<std::uint32_t, std::map<ProcessId, Value>> first_vote_;
  std::map<std::uint32_t, std::map<ProcessId, ViewChangeRecord>> view_changes_;
};

}  // namespace scup::bftcup
