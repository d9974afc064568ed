// Simulation-level metrics: the deterministic totals every run reports.
// Two runs of one seeded simulation produce equal SimMetrics; the golden
// pins and the serial==parallel matrix suites compare them.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/counters.hpp"

namespace scup::sim {

struct SimMetrics {
  std::size_t messages_sent = 0;
  std::size_t bytes_sent = 0;
  /// Per-type send counts indexed by interned MessageTypeRegistry id (the
  /// per-send hot path is one vector index; names are resolved only at
  /// report time). Entries are 0 for types this simulation never sent.
  std::vector<std::size_t> messages_by_type_id;
  std::size_t timer_fires = 0;
  std::size_t events_processed = 0;
  /// Sends the NetworkModel lost (pre-GST loss) / duplicated.
  std::size_t messages_dropped = 0;
  std::size_t messages_duplicated = 0;
  /// Protocol instrumentation (sim/counters.hpp), reported by protocol
  /// components via ProtocolHost::host_counter_add — e.g. the SCP
  /// QuorumEngine's closure/eval/cache counters (E13). Indexed by
  /// ProtoCounter; deterministic per scenario, so the E12 serial==parallel
  /// identity compare covers it.
  std::array<std::uint64_t, kProtoCounterCount> protocol_counters{};

  bool operator==(const SimMetrics&) const = default;

  /// Report-time view: type name -> count for every type this simulation
  /// actually sent.
  std::map<std::string, std::size_t> messages_by_type() const;
  /// Report-time view of protocol_counters: counter name -> value.
  std::map<std::string, std::uint64_t> protocol_counters_by_name() const;
  std::uint64_t protocol_counter(ProtoCounter c) const {
    return protocol_counters[static_cast<std::size_t>(c)];
  }
};

}  // namespace scup::sim
