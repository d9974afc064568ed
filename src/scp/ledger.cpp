#include "scp/ledger.hpp"

#include "common/rng.hpp"

namespace scup::scp {

void LedgerMultiplexer::SlotHost::host_send(ProcessId to,
                                            sim::MessagePtr msg) {
  const auto* env = dynamic_cast<const Envelope*>(msg.get());
  if (env == nullptr) {
    throw std::logic_error("SlotHost: only SCP envelopes expected");
  }
  if (msg == last_inner_) {
    mux_.host_.host_counter_add(sim::ProtoCounter::kSlotWrapsShared, 1);
    mux_.host_.host_send(to, last_wrapped_);
    return;
  }
  last_wrapped_ = sim::make_message<SlotEnvelope>(slot_, *env);
  last_inner_ = std::move(msg);
  mux_.host_.host_counter_add(sim::ProtoCounter::kSlotWraps, 1);
  mux_.host_.host_send(to, last_wrapped_);
}

void LedgerMultiplexer::SlotHost::host_set_timer(int timer_id,
                                                 SimTime delay) {
  if (timer_id != kScpBallotTimerId) {
    throw std::logic_error("SlotHost: unexpected timer id");
  }
  mux_.host_.host_set_timer(ledger_timer_id(slot_), delay);
}

LedgerMultiplexer::LedgerMultiplexer(sim::ProtocolHost& host,
                                     std::size_t universe, fbqs::QSet qset,
                                     std::size_t target_slots,
                                     ScpConfig scp_config,
                                     std::size_t slot_window)
    : host_(host),
      universe_(universe),
      qset_(std::move(qset)),
      target_slots_(target_slots),
      scp_config_(scp_config),
      slot_window_(slot_window),
      peers_(universe) {}

void LedgerMultiplexer::set_qset(fbqs::QSet qset) {
  if (started_) throw std::logic_error("LedgerMultiplexer::set_qset late");
  qset_ = std::move(qset);
  // Slots created by early envelope arrivals (before the sink detector
  // returned) carry the placeholder qset; rebind them.
  for (auto& [slot, s] : slots_) {
    if (!s.node->started()) s.node->set_qset(qset_);
  }
}

const ScpNode* LedgerMultiplexer::slot_node(std::uint64_t slot) const {
  const auto it = slots_.find(slot);
  return it == slots_.end() ? nullptr : it->second.node.get();
}

void LedgerMultiplexer::add_peer(ProcessId peer) {
  if (peer == host_.self() || peer >= universe_ || peers_.contains(peer)) {
    return;
  }
  peers_.add(peer);
  for (auto& [slot, s] : slots_) s.node->add_peer(peer);
}

LedgerMultiplexer::Slot& LedgerMultiplexer::ensure_slot(std::uint64_t slot) {
  auto it = slots_.find(slot);
  if (it != slots_.end()) return it->second;

  Slot s;
  s.shim = std::make_unique<SlotHost>(*this, slot);
  // The proposal value is bound at start_slot(); a placeholder keeps the
  // (not yet started) node buffering incoming envelopes. All slots share
  // the multiplexer's QuorumEngine.
  s.node = std::make_unique<ScpNode>(*s.shim, universe_, qset_,
                                     /*own_value=*/1, scp_config_, &engine_);
  s.node->on_decide = [this, slot](Value v) { on_decided(slot, v); };
  for (ProcessId p : peers_) s.node->add_peer(p);
  auto [inserted, _] = slots_.emplace(slot, std::move(s));
  return inserted->second;
}

void LedgerMultiplexer::start() {
  if (started_) return;
  if (!value_provider) {
    throw std::logic_error("LedgerMultiplexer: value_provider not set");
  }
  started_ = true;
  start_slot(1);
  flush_counters();
}

void LedgerMultiplexer::start_slot(std::uint64_t slot) {
  if (target_slots_ != 0 && slot > target_slots_) return;
  next_to_start_ = slot + 1;
  Slot& s = ensure_slot(slot);
  if (s.node->started()) return;
  const Value v = value_provider(slot);
  if (v == kNoValue) {
    throw std::logic_error("LedgerMultiplexer: provider returned kNoValue");
  }
  // Bind the real proposal (the node was created with a placeholder and
  // has not started yet, so any envelopes it buffered are preserved).
  s.node->set_proposal(v);
  s.node->start();
}

void LedgerMultiplexer::on_decided(std::uint64_t slot, Value value) {
  decisions_[slot] = value;
  // Advance the contiguous prefix and fold the running digest — identical
  // to rehashing decisions 1..prefix from scratch, without the O(k) walk
  // per decision that made on_decided O(k²) per run.
  while (true) {
    const auto it = decisions_.find(decided_prefix_ + 1);
    if (it == decisions_.end()) break;
    ++decided_prefix_;
    digest_ = hash_mix(digest_, decided_prefix_, it->second);
  }
  if (on_slot_decided) on_slot_decided(slot, value);
  // Open the next slot once this one (and all before it) are closed.
  if (slot + 1 == next_to_start_ && decided_prefix_ >= slot) {
    start_slot(slot + 1);
  }
}

bool LedgerMultiplexer::handle(ProcessId from, const sim::MessagePtr& msg) {
  const auto* wrapped = dynamic_cast<const SlotEnvelope*>(msg.get());
  if (wrapped == nullptr) return false;
  if (wrapped->slot == 0 ||
      (target_slots_ != 0 && wrapped->slot > target_slots_)) {
    return true;  // out of range; drop
  }
  // Byzantine memory-bomb bound: only slots within the window past the
  // next slot to start may allocate (or reach) an ScpNode. A peer cannot
  // honestly be further ahead than its quorums, so nothing is lost.
  if (wrapped->slot >= next_to_start_ + slot_window_) {
    ++envelopes_dropped_;
    return true;
  }
  Slot& s = ensure_slot(wrapped->slot);
  s.node->handle(from, sim::MessagePtr(msg, &wrapped->envelope));
  flush_counters();
  return true;
}

bool LedgerMultiplexer::on_timer(int timer_id) {
  if (timer_id < kLedgerTimerBase) return false;
  const std::uint64_t slot =
      static_cast<std::uint64_t>(timer_id - kLedgerTimerBase);
  const auto it = slots_.find(slot);
  // Claim only ids that map to one of our slots: a composed protocol is
  // free to use other high timer ids (the old code swallowed them all).
  if (it == slots_.end()) return false;
  it->second.node->on_ballot_timer();
  flush_counters();
  return true;
}

bool LedgerMultiplexer::slot_decided(std::uint64_t slot) const {
  return decisions_.count(slot) > 0;
}

Value LedgerMultiplexer::slot_decision(std::uint64_t slot) const {
  const auto it = decisions_.find(slot);
  if (it == decisions_.end()) {
    throw std::logic_error("LedgerMultiplexer: slot not decided");
  }
  return it->second;
}

void LedgerMultiplexer::flush_counters() {
  flush_quorum_counters(host_, engine_.stats(), flushed_);
}

}  // namespace scup::scp
