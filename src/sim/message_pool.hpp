// The counters of the message pool that used to sit under make_message().
// Messages are plain std::make_shared objects now (DESIGN.md §4.9).
#pragma once

#include <cstdint>

namespace scup::sim {

// The simulator no longer fills these; they stay only because benchmark/
// reads them through Simulation::pool_stats(), and go with the next change
// to the benchmark.
struct MessagePool {
  struct Stats {
    std::uint64_t pool_allocs = 0;
    std::uint64_t fallback_allocs = 0;
    std::uint64_t slabs_created = 0;
  };
};

}  // namespace scup::sim
