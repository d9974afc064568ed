#include "common/rng.hpp"

#include <bit>
#include <stdexcept>

namespace scup {

namespace {
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("Rng::uniform: bound must be > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = -bound % bound;
  while (true) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::uniform_range(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_range: lo > hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(span == 0 ? next_u64() : uniform(span));
}

double Rng::uniform_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform_double() < p;
}

Rng Rng::split() { return Rng(next_u64()); }

std::uint64_t StreamRng::next_u64() { return splitmix64(state_); }

std::uint64_t StreamRng::uniform(std::uint64_t bound) {
  if (bound == 0) {
    throw std::invalid_argument("StreamRng::uniform: bound must be > 0");
  }
  return next_u64() % bound;
}

std::int64_t StreamRng::uniform_range(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("StreamRng::uniform_range: lo > hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  // span == 0 encodes the full 2^64 range.
  const std::uint64_t r = next_u64();
  return lo + static_cast<std::int64_t>(span == 0 ? r : r % span);
}

double StreamRng::uniform_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool StreamRng::chance(double p) {
  // The draw happens unconditionally — see the header contract.
  const double u = uniform_double();
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return u < p;
}

std::vector<ProcessId> Rng::sample_ids(std::size_t n, std::size_t k) {
  if (k > n) throw std::invalid_argument("Rng::sample_ids: k > n");
  std::vector<ProcessId> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = static_cast<ProcessId>(i);
  shuffle(all);
  all.resize(k);
  return all;
}

std::uint64_t hash_mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t state = a * 0x9E3779B97F4A7C15ULL + b;
  std::uint64_t h = splitmix64(state);
  state = h + c;
  return splitmix64(state);
}

}  // namespace scup
