// Global allocation meter for one bench binary: counting replacements of
// global operator new/delete, and heap_allocs() to read the count.
// Replacing operator new rebinds every heap allocation in the executable,
// so the count sees the benchmark harness too: rows compare deltas around
// the code they measure, where the harness contribution cancels.
//
// Replacement allocation functions may not be inline, so this header
// defines them outright: include it from exactly one translation unit of a
// binary.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace scup::bench {

inline std::atomic<std::uint64_t> g_heap_allocs{0};

/// Heap allocations made through operator new so far in this process.
inline std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

inline void* counted_alloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace scup::bench

void* operator new(std::size_t size) {
  return scup::bench::counted_alloc(size);
}
void* operator new[](std::size_t size) {
  return scup::bench::counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
