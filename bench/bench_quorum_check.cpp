// E9 — Algorithm 1: is_quorum and quorum-closure cost, explicit slice
// lists vs threshold families, vs universe size. Threshold families (what
// Algorithm 2 emits) evaluate in O(|V|) per member regardless of the
// (combinatorially large) number of denoted slices — the representation
// choice DESIGN.md §4.2 calls out.
#include "bench_common.hpp"

#include <algorithm>
#include <limits>

#include "common/rng.hpp"

namespace scup {
namespace {

/// C(n, k), saturating at SIZE_MAX on overflow.
std::size_t binomial_saturating(std::size_t n, std::size_t k) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  std::size_t result = 1;
  for (std::size_t i = 1; i <= k; ++i) {
    const std::size_t num = n - k + i;
    if (result > std::numeric_limits<std::size_t>::max() / num) {
      return std::numeric_limits<std::size_t>::max();
    }
    result = result * num / i;
  }
  return result;
}

fbqs::FbqsSystem explicit_system(std::size_t n, std::size_t slices_per_node,
                                 std::size_t slice_size, std::uint64_t seed) {
  Rng rng(seed);
  fbqs::FbqsSystem sys(n);
  for (ProcessId i = 0; i < n; ++i) {
    std::vector<NodeSet> slices;
    for (std::size_t s = 0; s < slices_per_node; ++s) {
      NodeSet slice(n);
      for (ProcessId m : rng.sample_ids(n, slice_size)) slice.add(m);
      slices.push_back(std::move(slice));
    }
    sys.set_slices(i, fbqs::QSet::one_of(slices));
  }
  return sys;
}

void BM_IsQuorum_Threshold(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  NodeSet sink(n);
  for (ProcessId i = 0; i < n / 2; ++i) sink.add(i);
  const auto sys = scup::bench::algorithm2_system(n, sink, 2);
  const NodeSet q = NodeSet::full(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.is_quorum(q));
  }
  // Process 0 is a sink member: all m-subsets of the sink.
  const fbqs::QSet& slices = sys.slices_of(0);
  state.counters["denoted_slices"] = static_cast<double>(
      binomial_saturating(slices.validators().size(), slices.threshold()));
}
BENCHMARK(BM_IsQuorum_Threshold)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_IsQuorum_Explicit(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t per_node = static_cast<std::size_t>(state.range(1));
  const auto sys = explicit_system(n, per_node, 3, 11);
  const NodeSet q = NodeSet::full(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.is_quorum(q));
  }
}
BENCHMARK(BM_IsQuorum_Explicit)
    ->ArgsProduct({{16, 64, 256}, {4, 16, 64}});

void BM_QuorumClosure(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  NodeSet sink(n);
  for (ProcessId i = 0; i < n / 2; ++i) sink.add(i);
  const auto sys = scup::bench::algorithm2_system(n, sink, 2);
  // Start from a set that forces several elimination rounds: everything
  // except a few sink members.
  NodeSet candidate = NodeSet::full(n);
  for (ProcessId i = 0; i < 3; ++i) candidate.remove(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.quorum_closure(candidate));
  }
}
BENCHMARK(BM_QuorumClosure)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_MinimalQuorumEnumeration(benchmark::State& state) {
  // Exhaustive analysis cost (tests-only path) vs universe size.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  NodeSet sink(n);
  for (ProcessId i = 0; i < n / 2; ++i) sink.add(i);
  const auto sys = scup::bench::algorithm2_system(n, sink, 1);
  std::size_t count = 0;
  for (auto _ : state) {
    count = sys.minimal_quorums_for(0).size();
    benchmark::DoNotOptimize(count);
  }
  state.counters["minimal_quorums"] = static_cast<double>(count);
}
BENCHMARK(BM_MinimalQuorumEnumeration)->Arg(8)->Arg(12)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_QSetSatisfiedBy(benchmark::State& state) {
  // The hot path inside SCP's federated voting.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  NodeSet sink(n);
  for (ProcessId i = 0; i < n / 2; ++i) sink.add(i);
  const fbqs::QSet qset =
      fbqs::QSet::threshold_of((sink.count() + 2 + 1) / 2, sink);
  NodeSet probe(n);
  for (ProcessId i = 0; i < n; i += 2) probe.add(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qset.satisfied_by(probe));
    benchmark::DoNotOptimize(qset.blocked_by(probe));
  }
}
BENCHMARK(BM_QSetSatisfiedBy)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

}  // namespace
}  // namespace scup

SCUP_BENCH_MAIN("E9");
