// Deterministic, seedable random number generation.
//
// All randomness in the library flows through this header, so that every
// test, bench and example is reproducible from a single seed: Rng draws the
// generated graphs, the faulty-set placements and the notary's keys, and
// StreamRng each sender's network delays, drops and duplicates.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace scup {

/// xoshiro256** seeded via splitmix64. Small, fast, and good enough for
/// simulation purposes (not cryptographic).
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  std::uint64_t next_u64();

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t uniform(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_range(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform_double();

  /// True with probability p (clamped to [0,1]).
  bool chance(double p);

  /// A fresh, independent generator derived from this one (for giving each
  /// simulated component its own stream).
  Rng split();

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Picks `k` distinct elements uniformly from [0, n). Requires k <= n.
  std::vector<ProcessId> sample_ids(std::size_t n, std::size_t k);

 private:
  std::uint64_t s_[4];
};

/// Counter-based splitmix64 stream: the simulator's per-sender network
/// stream (sim::Simulation seeds one per process). Unlike Rng (whose
/// rejection-sampling uniform consumes a data-dependent number of raw
/// draws), every StreamRng method consumes exactly ONE raw draw, so the
/// stream a seeded run sees never depends on the values it drew.
///
/// Statistical quality is splitmix64's: fine for simulation delays and
/// fault coin flips, not cryptographic. uniform() maps one draw by modulo;
/// the bias is < bound / 2^64, immaterial for the tick-scale bounds used
/// here.
class StreamRng {
 public:
  explicit StreamRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next_u64();

  /// Uniform integer in [0, bound). bound must be > 0. One draw.
  std::uint64_t uniform(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi. One draw.
  std::int64_t uniform_range(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1). One draw.
  double uniform_double();

  /// True with probability p (clamped to [0,1]). Always one draw, even for
  /// p <= 0 or p >= 1 — the draw count must not depend on the outcome or
  /// the parameter.
  bool chance(double p);

 private:
  std::uint64_t state_;
};

/// Stateless 64-bit mix, for values derived deterministically from their
/// inputs: QuorumEngine::assignment_fp's fingerprints, PBFT statement
/// digests, notary signatures, default ledger proposals, chain digests and
/// the per-sender network stream seeds.
std::uint64_t hash_mix(std::uint64_t a, std::uint64_t b = 0,
                       std::uint64_t c = 0);

}  // namespace scup
