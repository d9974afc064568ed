// MessagePool: the per-Simulation slab arena under make_message().
//
// A broadcast plane at 10k-node scale performs millions of message
// constructions per run; with plain make_shared each one is an allocator
// round-trip. The pool carves fixed-size blocks out of 64 KiB slabs, keyed
// by size class, with a per-slab freelist and *wholesale* reclamation: when
// every block of a slab has been released, the slab's freelist is discarded
// in one step and the slab parks on an empty list any size class can
// reformat and reuse. Steady state (messages born and dying at a bounded
// in-flight population) touches the system allocator zero times.
//
// Ownership: MessagePtr stays a vanilla std::shared_ptr — make_message uses
// std::allocate_shared with a PoolAllocator, so message object and control
// block share one pool block and call sites are oblivious. The allocator
// copy stored in every control block holds a shared_ptr to the pool's
// internal State, so blocks can be released safely on any thread even after
// the owning Simulation (and MessagePool handle) is destroyed.
// See DESIGN.md §4.9.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

namespace scup::sim {

class MessagePool {
 public:
  struct Stats {
    /// Blocks handed out from slabs / released back to them.
    std::uint64_t pool_allocs = 0;
    std::uint64_t pool_frees = 0;
    /// Requests larger than the biggest size class, served by operator new.
    std::uint64_t fallback_allocs = 0;
    /// Slabs created from the system allocator vs. reformatted empties.
    std::uint64_t slabs_created = 0;
    std::uint64_t slabs_recycled = 0;
    /// Slab storage currently held (never shrinks while the pool lives).
    std::uint64_t bytes_reserved = 0;
  };

  MessagePool();
  ~MessagePool();
  MessagePool(const MessagePool&) = delete;
  MessagePool& operator=(const MessagePool&) = delete;

  Stats stats() const;

  /// The pool bound to the calling thread, or nullptr. make_message reads
  /// this; Simulation run loops bind their pool via Scope.
  static MessagePool* current();

  /// RAII thread-local binding. Scopes nest; each restores the previous
  /// binding on destruction. Binding nullptr disables pooling inside.
  class Scope {
   public:
    explicit Scope(MessagePool* pool);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    MessagePool* prev_;
  };

  struct State;

 private:
  template <typename T>
  friend class PoolAllocator;

  std::shared_ptr<State> state_;
};

/// Allocate/deallocate raw blocks against a pool State kept alive by the
/// handle. Thread-safe; deallocate accepts blocks from any thread.
void* pool_allocate(const std::shared_ptr<MessagePool::State>& state,
                    std::size_t bytes);
void pool_deallocate(const std::shared_ptr<MessagePool::State>& state,
                     void* ptr, std::size_t bytes);

/// Minimal std allocator over a MessagePool, for std::allocate_shared. The
/// shared State handle makes every copy (including the one hidden in each
/// shared_ptr control block) a keep-alive for the slabs it points into.
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;

  explicit PoolAllocator(MessagePool& pool) : state_(pool.state_) {}
  template <typename U>
  explicit(false) PoolAllocator(const PoolAllocator<U>& other)
      : state_(other.state_) {}

  T* allocate(std::size_t n) {
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "pool blocks are max_align_t-aligned");
    return static_cast<T*>(pool_allocate(state_, n * sizeof(T)));
  }
  void deallocate(T* ptr, std::size_t n) {
    pool_deallocate(state_, ptr, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>& other) const {
    return state_ == other.state_;
  }

 private:
  template <typename U>
  friend class PoolAllocator;

  std::shared_ptr<MessagePool::State> state_;
};

}  // namespace scup::sim
