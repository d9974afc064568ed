// ComposedNode: a simulated process that hosts protocol components.
//
// Protocol layers (sink detector, SCP, PBFT) are written against
// ProtocolHost; a ComposedNode is a sim::Process that implements the host
// interface by delegating to the protected Process actions, so one simulated
// participant can run several layers at once.
#pragma once

#include "sim/host.hpp"
#include "sim/process.hpp"

namespace scup::sim {

class ComposedNode : public Process, public ProtocolHost {
 public:
  explicit ComposedNode(std::size_t fault_threshold)
      : fault_threshold_(fault_threshold) {}

  // ProtocolHost:
  ProcessId self() const final { return id(); }
  std::size_t universe() const final { return universe_size(); }
  std::size_t fault_threshold() const final { return fault_threshold_; }
  void host_send(ProcessId to, MessagePtr msg) final {
    send(to, std::move(msg));
  }
  void host_set_timer(int timer_id, SimTime delay) final {
    set_timer(timer_id, delay);
  }
  std::uint64_t host_sign(std::uint64_t statement) const final {
    return sign(statement);
  }
  bool host_verify(ProcessId signer, std::uint64_t statement,
                   std::uint64_t token) const final {
    return verify(signer, statement, token);
  }
  void host_counter_add(ProtoCounter counter, std::uint64_t delta) final {
    counter_add(counter, delta);
  }

 private:
  std::size_t fault_threshold_;
};

}  // namespace scup::sim
