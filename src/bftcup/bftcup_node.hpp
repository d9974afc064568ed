// BftCupNode — the BFT-CUP baseline (Theorem 1): the same initial knowledge
// (PD_i and f), but consensus is reached by
//   1. discovering the sink (same SINK algorithm / sink detector),
//   2. running PBFT among the sink members,
//   3. disseminating the decision to non-sink members, who accept a value
//      vouched for by more than f distinct senders: the sink detector's
//      ⟨GET_SINK, i⟩ flood doubles as the decision request, and decided
//      processes answer it through a FloodQuery of their own.
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "bftcup/pbft.hpp"
#include "common/node_set.hpp"
#include "cup/messages.hpp"
#include "sim/composed.hpp"
#include "sinkdetector/flood_query.hpp"
#include "sinkdetector/sink_detector.hpp"

namespace scup::bftcup {

/// Frame id 49 (see the allocation table in sim/wire.hpp callers).
inline constexpr std::uint16_t kWireTypeDecision = 49;

/// A (claimed) decided value; non-sink members require > f matching senders.
struct DecisionMsg final : sim::Message {
  explicit DecisionMsg(Value v) : value(v) {}
  Value value;
  std::string_view type_name() const override { return "bftcup.decision"; }
  static constexpr std::uint16_t kWireType = kWireTypeDecision;
  std::uint16_t wire_type() const override { return kWireType; }
  void wire_encode(sim::WireWriter& w) const override { w.u64(value); }
  static sim::MessagePtr wire_decode(sim::WireReader& r) {
    const Value value = r.u64();
    if (!r.ok()) return nullptr;
    return sim::make_message<DecisionMsg>(value);
  }
};

class BftCupNode : public sim::ComposedNode {
 public:
  BftCupNode(NodeSet pd, std::size_t f, Value value, PbftConfig pbft = {},
             cup::DiscoveryConfig discovery = {});

  void start() override;
  void on_message(ProcessId from, const sim::MessagePtr& msg) override;
  void on_timer(int timer_id) override;

  bool sink_detected() const { return detector_.has_result(); }
  const sinkdetector::GetSinkResult& sink_result() const {
    return detector_.result();
  }
  SimTime sink_detect_time() const { return sd_time_; }

  bool decided() const { return decided_.has_value(); }
  Value decision() const;
  SimTime decision_time() const { return decision_time_; }

  /// PBFT messages buffered until the sink detector returns, for tests.
  std::size_t pending_pbft_size() const { return pending_pbft_.size(); }

 private:
  void on_sink(const sinkdetector::GetSinkResult& result);
  void decide(Value v);

  Value value_;
  PbftConfig pbft_config_;
  sinkdetector::SinkDetector detector_;
  /// Decision dissemination: every ⟨GET_SINK, i⟩ the detector forwards is
  /// recorded here too, and answered with DecisionMsg once we have decided.
  /// Only sink members' answers carry the >f guarantee, but a node cannot
  /// know the requester's view, and answering is harmless either way.
  sinkdetector::FloodQuery<cup::GetSinkMsg, DecisionMsg, Value>
      dissemination_;
  std::unique_ptr<PbftConsensus> pbft_;

  /// PBFT traffic arriving before our own sink detection completes is
  /// buffered and replayed once the consensus instance exists — otherwise a
  /// slow sink member could miss prepares forever and stall the quorum.
  /// Only the first message per (sender, wire type, view) is kept, and
  /// only for views a fresh instance admits (at most view_window past view
  /// 0): a correct member sends one of each per view, so a sender holds at
  /// most 5 × (view_window + 1) entries whatever it sends.
  std::vector<std::pair<ProcessId, sim::MessagePtr>> pending_pbft_;
  std::set<std::tuple<ProcessId, std::uint16_t, std::uint32_t>> pending_keys_;

  std::optional<Value> decided_;
  SimTime sd_time_ = kTimeInfinity;
  SimTime decision_time_ = kTimeInfinity;
};

}  // namespace scup::bftcup
