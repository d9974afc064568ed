// Core identifiers and small helpers shared by every module.
#pragma once

#include <cstdint>
#include <limits>

namespace scup {

/// Identity of a process (participant). Processes are indexed 0..n-1 inside a
/// universe of size n; the simulator enforces that ids cannot be forged
/// (authenticated channels, no Sybil attacks — Section III-A of the paper).
using ProcessId = std::uint32_t;

inline constexpr ProcessId kInvalidProcess =
    std::numeric_limits<ProcessId>::max();

/// Simulated time, in abstract "ticks" (we treat one tick as a microsecond
/// when reporting, but nothing depends on the unit).
using SimTime = std::int64_t;

inline constexpr SimTime kTimeInfinity =
    std::numeric_limits<SimTime>::max() / 4;

/// Consensus proposal values. The theory is value-agnostic; a 64-bit payload
/// keeps simulation state compact while still supporting hash-based
/// tie-breaking and set-union composite values in SCP nomination.
using Value = std::uint64_t;

inline constexpr Value kNoValue = 0;

}  // namespace scup
