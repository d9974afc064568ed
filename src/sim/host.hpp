// ProtocolHost: the narrow interface protocol components (discovery, sink
// detector, SCP, PBFT) use to interact with the world. A composed node
// (e.g. core::StellarCupNode) subclasses sim::Process AND implements this
// interface, so several protocol layers can share one simulated process.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "sim/counters.hpp"
#include "sim/message.hpp"

namespace scup::sim {

class ProtocolHost {
 public:
  virtual ~ProtocolHost() = default;

  virtual ProcessId self() const = 0;
  virtual std::size_t universe() const = 0;

  /// The system-wide fault threshold f (known to every process, Section
  /// III-A).
  virtual std::size_t fault_threshold() const = 0;

  virtual void host_send(ProcessId to, MessagePtr msg) = 0;
  virtual void host_set_timer(int timer_id, SimTime delay) = 0;

  /// Signature simulation (see Notary). host_sign signs as `self()`.
  virtual std::uint64_t host_sign(std::uint64_t statement) const = 0;
  virtual bool host_verify(ProcessId signer, std::uint64_t statement,
                           std::uint64_t token) const = 0;

  /// Reports protocol work into the simulation's SimMetrics (see
  /// sim/counters.hpp). Default no-op so host fakes and shims that do not
  /// track metrics need no changes.
  virtual void host_counter_add(ProtoCounter counter, std::uint64_t delta) {
    (void)counter;
    (void)delta;
  }
};

}  // namespace scup::sim
