#include "core/adversaries.hpp"

#include "cup/messages.hpp"
#include "sinkdetector/slice_builder.hpp"

namespace scup::core {

// ------------------------------------------------------------ DiscoveryLiar

DiscoveryLiarNode::DiscoveryLiarNode(NodeSet real_pd, NodeSet fake_pd,
                                     std::size_t f,
                                     std::optional<NodeSet> second_fake_pd)
    : ComposedNode(f),
      real_pd_(std::move(real_pd)),
      fake_pd_(std::move(fake_pd)),
      second_fake_pd_(std::move(second_fake_pd)) {}

void DiscoveryLiarNode::start() {
  // Push the fabricated certificate(s) to everyone we really know, plus the
  // fabricated targets themselves — maximal spread of the lie.
  NodeSet audience = real_pd_ | fake_pd_;
  if (second_fake_pd_) audience |= *second_fake_pd_;
  for (ProcessId j : audience) {
    if (j == id()) continue;
    const NodeSet& claimed =
        (second_fake_pd_ && j % 2 == 1) ? *second_fake_pd_ : fake_pd_;
    send(j, sim::make_message<cup::DiscoverMsg>(
                cup::PdCertificate{id(), claimed}));
  }
}

void DiscoveryLiarNode::on_message(ProcessId from,
                                   const sim::MessagePtr& msg) {
  // Answer discovery queries with the lie (parity-dependent when
  // equivocating); ignore everything else (silent in consensus).
  if (sim::message_as<cup::DiscoverMsg>(msg.get()) != nullptr) {
    const NodeSet& claimed =
        (second_fake_pd_ && from % 2 == 1) ? *second_fake_pd_ : fake_pd_;
    send(from, sim::make_message<cup::CertGossipMsg>(
                   std::vector<cup::PdCertificate>{{id(), claimed}}));
  }
}

// ---------------------------------------------------------- ScpEquivocator

ScpEquivocatorNode::ScpEquivocatorNode(NodeSet pd, std::size_t f,
                                       Value value_a, Value value_b)
    : ComposedNode(f),
      pd_(std::move(pd)),
      value_a_(value_a),
      value_b_(value_b),
      detector_(*this, pd_) {
  detector_.on_result = [this](const sinkdetector::GetSinkResult& r) {
    on_sink(r);
  };
}

void ScpEquivocatorNode::start() { detector_.start(); }

void ScpEquivocatorNode::on_sink(const sinkdetector::GetSinkResult& result) {
  // Build a legitimate-looking qset (Algorithm 2) so receivers treat the
  // envelopes as well-formed, then nominate value_a to even peers and
  // value_b to odd peers — a split-brain attempt.
  const fbqs::QSet qset = sinkdetector::build_slices(result, fault_threshold());
  NodeSet audience = pd_ | result.sink;
  for (ProcessId peer : audience) {
    if (peer == id()) continue;
    scp::NominateStmt stmt;
    stmt.voted = {peer % 2 == 0 ? value_a_ : value_b_};
    send(peer, sim::make_message<scp::Envelope>(id(), /*seq=*/1, qset,
                                                scp::Statement{stmt}));
  }
}

void ScpEquivocatorNode::on_message(ProcessId from,
                                    const sim::MessagePtr& msg) {
  // Participate honestly in discovery (it needs the sink to craft its
  // attack); drop everything else.
  detector_.handle(from, *msg);
}

}  // namespace scup::core
