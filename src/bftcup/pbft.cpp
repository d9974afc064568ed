#include "bftcup/pbft.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"

namespace scup::bftcup {

std::uint64_t prepare_hash(std::uint32_t view, Value value) {
  return hash_mix(0x11110000ULL + view, value, 1);
}
std::uint64_t commit_hash(std::uint32_t view, Value value) {
  return hash_mix(0x22220000ULL + view, value, 2);
}
std::uint64_t viewchange_hash(std::uint32_t new_view,
                              std::uint32_t prepared_view,
                              Value prepared_value) {
  return hash_mix(0x33330000ULL + new_view, prepared_view, prepared_value);
}

bool is_pbft_message(const sim::Message& msg) {
  switch (msg.wire_type()) {
    case kWireTypePrePrepare:
    case kWireTypePrepare:
    case kWireTypeCommit:
    case kWireTypeViewChange:
    case kWireTypeNewView:
      return true;
    default:
      return false;
  }
}

std::uint32_t pbft_view(const sim::Message& msg) {
  if (const auto* pp = sim::message_as<PrePrepareMsg>(&msg)) return pp->view;
  if (const auto* p = sim::message_as<PrepareMsg>(&msg)) return p->view;
  if (const auto* c = sim::message_as<CommitMsg>(&msg)) return c->view;
  if (const auto* vc = sim::message_as<ViewChangeMsg>(&msg)) {
    return vc->record.new_view;
  }
  if (const auto* nv = sim::message_as<NewViewMsg>(&msg)) return nv->view;
  return 0;
}

void wire_put_viewchange_record(sim::WireWriter& w,
                                const ViewChangeRecord& r) {
  w.u32(r.sender);
  w.u32(r.new_view);
  w.u32(r.prepared_view);
  w.u64(r.prepared_value);
  w.u32(static_cast<std::uint32_t>(r.prepare_cert.size()));
  for (const SignedToken& t : r.prepare_cert) {
    w.u32(t.signer);
    w.u64(t.token);
  }
  w.u64(r.token);
}

std::optional<ViewChangeRecord> wire_get_viewchange_record(sim::WireReader& r) {
  ViewChangeRecord record;
  record.sender = r.u32();
  record.new_view = r.u32();
  record.prepared_view = r.u32();
  record.prepared_value = r.u64();
  const std::uint32_t cert_count = r.u32();
  if (!r.fits(cert_count, 12)) {
    r.fail();
    return std::nullopt;
  }
  record.prepare_cert.reserve(cert_count);
  for (std::uint32_t i = 0; i < cert_count; ++i) {
    SignedToken token;
    token.signer = r.u32();
    token.token = r.u64();
    record.prepare_cert.push_back(token);
  }
  record.token = r.u64();
  if (!r.ok()) return std::nullopt;
  return record;
}

PbftConsensus::PbftConsensus(sim::ProtocolHost& host, NodeSet members,
                             PbftConfig config)
    : host_(host),
      members_(std::move(members)),
      sorted_members_(members_.to_vector()),
      f_(host.fault_threshold()),
      q_((members_.count() + f_ + 1 + 1) / 2),  // ⌈(|S|+f+1)/2⌉
      config_(config) {
  if (!members_.contains(host_.self())) {
    throw std::invalid_argument("PbftConsensus: self not a member");
  }
  if (members_.count() < 2 * f_ + 1) {
    throw std::invalid_argument("PbftConsensus: |S| < 2f+1");
  }
}

ProcessId PbftConsensus::leader_of(std::uint32_t view) const {
  return sorted_members_[view % sorted_members_.size()];
}

void PbftConsensus::broadcast(const sim::MessagePtr& msg) {
  for (ProcessId m : members_) {
    if (m != host_.self()) host_.host_send(m, msg);
  }
}

void PbftConsensus::arm_timer() {
  const std::uint32_t growth = std::min(view_, config_.timeout_growth_cap);
  host_.host_set_timer(kPbftTimerId,
                       config_.view_timeout_base * (growth + 1));
}

void PbftConsensus::start(Value proposal) {
  if (started_) return;
  started_ = true;
  proposal_ = proposal;
  arm_timer();
  if (leader_of(0) == host_.self()) {
    broadcast(sim::make_message<PrePrepareMsg>(0, proposal_));
    accept_proposal(0, proposal_);
  }
}

bool PbftConsensus::view_admissible(std::uint32_t view) const {
  return static_cast<std::uint64_t>(view) <=
         static_cast<std::uint64_t>(view_) + config_.view_window;
}

/// Gatekeeper for all vote bookkeeping: returns the slot for (view, value)
/// iff `voter`'s first vote in `view` was for `value` (recording it if this
/// is the first), nullptr on equivocation. Honest members vote for exactly
/// one value per view, so their traffic always passes; a Byzantine member
/// signing fresh values can allocate at most one junk slot per view.
PbftConsensus::Slot* PbftConsensus::admit_vote(std::uint32_t view,
                                               Value value, ProcessId voter) {
  // Outer keys sit within the admission window and are GC'd below view_;
  // inner keys are member ids, and a member's first vote pins its slot.
  const auto [it, inserted] = first_vote_[view].try_emplace(voter, value);
  if (!inserted && it->second != value) return nullptr;
  return &slots_[{view, value}];
}

void PbftConsensus::accept_proposal(std::uint32_t view, Value value) {
  if (decided_ || view != view_ || accepted_value_) return;
  accepted_value_ = value;
  const std::uint64_t token = host_.host_sign(prepare_hash(view, value));
  if (Slot* slot = admit_vote(view, value, host_.self())) {
    slot->prepares[host_.self()] = token;
  }
  broadcast(sim::make_message<PrepareMsg>(view, value, token));
  check_prepared(view, value);
}

void PbftConsensus::check_prepared(std::uint32_t view, Value value) {
  if (decided_) return;
  const auto slot_it = slots_.find({view, value});
  if (slot_it == slots_.end()) return;
  Slot& slot = slot_it->second;
  if (slot.prepares.size() < q_) return;
  if (prepared_view_ > view ||
      (prepared_view_ == view && prepared_value_ == value)) {
    return;  // already prepared here or later
  }
  prepared_view_ = view;
  prepared_value_ = value;
  prepared_cert_.clear();
  for (const auto& [signer, token] : slot.prepares) {
    prepared_cert_.push_back({signer, token});
  }
  const std::uint64_t token = host_.host_sign(commit_hash(view, value));
  slot.commits[host_.self()] = token;
  broadcast(sim::make_message<CommitMsg>(view, value, token));
  check_committed(view, value);
}

void PbftConsensus::check_committed(std::uint32_t view, Value value) {
  if (decided_) return;
  const auto slot_it = slots_.find({view, value});
  if (slot_it == slots_.end() || slot_it->second.commits.size() < q_) return;
  decided_ = value;
  if (on_decide) on_decide(value);
}

bool PbftConsensus::handle(ProcessId from, const sim::Message& msg) {
  if (!members_.contains(from)) {
    // Only member messages matter; still claim pbft messages as consumed.
    return is_pbft_message(msg);
  }

  if (const auto* pp = sim::message_as<PrePrepareMsg>(&msg)) {
    if (started_ && from == leader_of(pp->view)) {
      accept_proposal(pp->view, pp->value);
    }
    return true;
  }
  if (const auto* p = sim::message_as<PrepareMsg>(&msg)) {
    if (view_admissible(p->view) &&
        host_.host_verify(from, prepare_hash(p->view, p->value), p->token)) {
      if (Slot* slot = admit_vote(p->view, p->value, from)) {
        slot->prepares[from] = p->token;
        if (started_) check_prepared(p->view, p->value);
      }
    }
    return true;
  }
  if (const auto* c = sim::message_as<CommitMsg>(&msg)) {
    if (view_admissible(c->view) &&
        host_.host_verify(from, commit_hash(c->view, c->value), c->token)) {
      if (Slot* slot = admit_vote(c->view, c->value, from)) {
        slot->commits[from] = c->token;
        if (started_) check_committed(c->view, c->value);
      }
    }
    return true;
  }
  if (const auto* vc = sim::message_as<ViewChangeMsg>(&msg)) {
    const ViewChangeRecord& r = vc->record;
    // Records for views already left behind can only justify NewView
    // messages every recipient would ignore; dropping them keeps the
    // view-change book within the admission window.
    if (r.sender == from && r.new_view >= view_ &&
        view_admissible(r.new_view) && validate_record(r)) {
      // scup-lint: bounded(outer key within view window + GC'd below view_; inner keyed by member id)
      auto& book = view_changes_[r.new_view];
      book[from] = r;
      if (started_) {
        // Join a view change once f+1 members ask for a higher view (at
        // least one of them is correct).
        if (r.new_view > view_ && book.size() >= f_ + 1) {
          send_view_change(r.new_view);
        }
        try_lead_new_view(r.new_view);
      }
    }
    return true;
  }
  if (const auto* nv = sim::message_as<NewViewMsg>(&msg)) {
    if (!started_ || decided_ || from != leader_of(nv->view) ||
        nv->view < view_) {
      return true;
    }
    // Validate: q valid records for this view, and the chosen value must be
    // the one with the highest certified prepared view (or anything when no
    // record is prepared).
    NodeSet senders(host_.universe());
    std::uint32_t best_view = 0;
    Value best_value = kNoValue;
    for (const ViewChangeRecord& r : nv->justification) {
      if (r.new_view != nv->view || !validate_record(r)) continue;
      if (!members_.contains(r.sender)) continue;
      senders.add(r.sender);
      if (r.prepared_view > best_view) {
        best_view = r.prepared_view;
        best_value = r.prepared_value;
      }
    }
    if (senders.count() < q_) return true;
    if (best_view > 0 && nv->value != best_value) return true;  // bogus leader
    enter_view(nv->view);
    accept_proposal(nv->view, nv->value);
    return true;
  }
  return false;
}

bool PbftConsensus::validate_record(const ViewChangeRecord& r) const {
  if (!members_.contains(r.sender)) return false;
  if (!host_.host_verify(
          r.sender,
          viewchange_hash(r.new_view, r.prepared_view, r.prepared_value),
          r.token)) {
    return false;
  }
  if (r.prepared_view == 0) return true;
  // The prepare certificate must contain q valid member signatures.
  NodeSet signers(host_.universe());
  const std::uint64_t h = prepare_hash(r.prepared_view, r.prepared_value);
  for (const SignedToken& t : r.prepare_cert) {
    if (members_.contains(t.signer) &&
        host_.host_verify(t.signer, h, t.token)) {
      signers.add(t.signer);
    }
  }
  return signers.count() >= q_;
}

void PbftConsensus::enter_view(std::uint32_t view) {
  if (view < view_) return;
  if (view > view_) {
    view_ = view;
    accepted_value_.reset();
    // View-change bookkeeping below the new view can no longer change the
    // outcome — stale records only justify NewViews every recipient
    // ignores — so drop it. Vote slots for older views stay: under
    // asynchrony a commit quorum for a view we already left is still a
    // legitimate (and safe) decision, and the admission bounds above cap
    // their growth without any GC.
    view_changes_.erase(view_changes_.begin(),
                        view_changes_.lower_bound(view_));
  }
  arm_timer();
}

void PbftConsensus::send_view_change(std::uint32_t new_view) {
  // Sending enters new_view and view_ never decreases, so this also stops
  // a second ViewChange for the same view.
  if (decided_ || new_view <= view_) return;

  ViewChangeRecord r;
  r.sender = host_.self();
  r.new_view = new_view;
  r.prepared_view = prepared_view_;
  r.prepared_value = prepared_value_;
  r.prepare_cert = prepared_cert_;
  r.token = host_.host_sign(
      viewchange_hash(new_view, prepared_view_, prepared_value_));
  view_changes_[new_view][host_.self()] = r;

  enter_view(new_view);
  broadcast(sim::make_message<ViewChangeMsg>(r));
  try_lead_new_view(new_view);
}

void PbftConsensus::try_lead_new_view(std::uint32_t view) {
  // Every call names a view >= view_, and leading a view enters it, so a
  // view we led before is the last one.
  if (decided_ || leader_of(view) != host_.self() || led_view_ == view) {
    return;
  }
  const auto it = view_changes_.find(view);
  if (it == view_changes_.end() || it->second.size() < q_) return;
  led_view_ = view;

  std::vector<ViewChangeRecord> justification;
  std::uint32_t best_view = 0;
  Value best_value = proposal_;
  for (const auto& [sender, r] : it->second) {
    justification.push_back(r);
    if (r.prepared_view > best_view) {
      best_view = r.prepared_view;
      best_value = r.prepared_value;
    }
  }
  enter_view(view);
  broadcast(sim::make_message<NewViewMsg>(view, best_value, justification));
  accept_proposal(view, best_value);
}

void PbftConsensus::on_view_timer() {
  if (!started_ || decided_) return;
  send_view_change(view_ + 1);
  arm_timer();
}

std::size_t PbftConsensus::bookkeeping_size() const {
  std::size_t n = slots_.size() + first_vote_.size() + view_changes_.size();
  for (const auto& [key, slot] : slots_) {
    n += slot.prepares.size() + slot.commits.size();
  }
  for (const auto& [view, votes] : first_vote_) n += votes.size();
  for (const auto& [view, book] : view_changes_) n += book.size();
  return n;
}

Value PbftConsensus::decision() const {
  if (!decided_) throw std::logic_error("PbftConsensus::decision: not decided");
  return *decided_;
}

}  // namespace scup::bftcup
