// Protocol instrumentation counters.
//
// Protocol components (SCP's QuorumEngine today; any layer tomorrow) report
// work counters into the simulation's SimMetrics through
// ProtocolHost::host_counter_add. The counter set is a fixed enum — not a
// runtime registry — so ids are stable across processes and threads and
// SimMetrics equality (the E12 serial==parallel identity check) stays a
// plain memberwise compare.
#pragma once

#include <cstddef>
#include <cstdint>

namespace scup::sim {

enum class ProtoCounter : std::uint8_t {
  /// Algorithm-1 closures actually executed (cache misses).
  kQuorumClosureRuns = 0,
  /// Closure answers served without a run: a verdict cached on an ScpNode
  /// support view, or the QuorumEngine's failed-support tier. Runs plus
  /// hits count the quorum checks asked.
  kQuorumClosureCacheHits,
  /// Flattened QSet evaluations (satisfied_by / blocked_by) actually run.
  kQsetEvals,
  /// Evaluations the rescan-every-check baseline would have run (counted by
  /// the same code path; the E13 savings denominator).
  kQsetEvalsBaseline,
  /// Incremental support-view refreshes (one per tracked envelope change).
  kSupportUpdates,
  /// Support views built from scratch (first query of a predicate, or
  /// rebuild after a cap eviction).
  kSupportRebuilds,
  /// SlotEnvelope wrappers constructed by the ledger's per-slot host shim
  /// (one per distinct broadcast payload after the shared-wrap cache).
  kSlotWraps,
  /// host_send calls served by the shim's cached wrapper instead of a
  /// fresh deep copy (the zero-copy broadcast path).
  kSlotWrapsShared,
  /// Discovery broadcast payloads (DISCOVER / KNOWN / gossip replies)
  /// actually constructed — one per state change, by the shared-payload
  /// caches in cup::SinkDiscovery.
  kDiscoveryPayloadBuilds,
  /// Discovery sends served by a cached shared payload instead of a fresh
  /// construction + per-destination size walk.
  kDiscoveryPayloadShared,
  /// Wire frames encoded — exactly one per codec-bearing message object,
  /// however many destinations its broadcast fans out to (the E16
  /// encode-once proof: kWireEncodes == distinct messages, not sends).
  kWireEncodes,
  /// Sends whose traffic accounting was served from a message's cached
  /// frame size (every send of a codec-bearing message after its first).
  kWireCachedSends,
  kCount,
};

inline constexpr std::size_t kProtoCounterCount =
    static_cast<std::size_t>(ProtoCounter::kCount);

/// Stable report-time name ("scp.closure_runs", ...).
const char* proto_counter_name(ProtoCounter c);

}  // namespace scup::sim
