#include "sim/message_pool.hpp"

#include <array>
#include <cstring>
#include <mutex>
#include <new>
#include <vector>

namespace scup::sim {

namespace {

// Block strides per size class, header included. Strides are multiples of
// 16 so payloads stay aligned for std::max_align_t after the 16-byte
// header. The largest class comfortably covers an allocate_shared node for
// every in-tree message type; bigger requests (huge gossip maps) fall back
// to the system allocator and are counted.
constexpr std::array<std::uint32_t, 7> kClassStrides = {64,   128,  256, 512,
                                                        1024, 2048, 4096};
constexpr std::size_t kNumClasses = kClassStrides.size();
constexpr std::size_t kBlockHeader = 16;
constexpr std::size_t kSlabBytes = 64 * 1024;

/// Set for the duration of a MessagePool::Scope on each thread; how
/// make_message finds the owning Simulation's pool.
thread_local MessagePool* tls_pool = nullptr;

}  // namespace

struct MessagePool::State {
  struct Slab {
    std::uint32_t class_index = 0;
    std::uint32_t capacity = 0;
    std::uint32_t live = 0;
    void* free_head = nullptr;
    // Intrusive doubly-linked membership in the class partial list.
    Slab* prev = nullptr;
    Slab* next = nullptr;
    bool in_partial = false;
    std::unique_ptr<std::uint8_t[]> storage;
  };

  // One mutex for the whole pool: allocation happens on whichever thread
  // runs the owning Simulation's loop (one at a time), and the critical
  // sections are a handful of pointer writes. A block may be released on
  // another thread only if a message object crosses threads; whether any
  // does (ScenarioMatrix cells) is unchecked, so the mutex stays until
  // that check and the keep-or-remove decision on the pool (ROADMAP.md).
  mutable std::mutex mutex;
  // Everything below is guarded by `mutex`.
  std::array<Slab*, kNumClasses> partial{};
  std::vector<std::unique_ptr<Slab>> slabs;
  std::vector<Slab*> empty;
  Stats stats;

  static void write_owner(std::uint8_t* block, Slab* slab) {
    std::memcpy(block, &slab, sizeof(slab));
  }
  static Slab* read_owner(std::uint8_t* block) {
    Slab* slab = nullptr;
    std::memcpy(&slab, block, sizeof(slab));
    return slab;
  }
  static void write_next_free(std::uint8_t* block, void* next) {
    std::memcpy(block + kBlockHeader, &next, sizeof(next));
  }
  static void* read_next_free(std::uint8_t* block) {
    void* next = nullptr;
    std::memcpy(&next, block + kBlockHeader, sizeof(next));
    return next;
  }

  // Lays out `slab` for size class `cls`: stamps every block's owner
  // pointer and threads a fresh freelist through the payload words. Called
  // on creation and when an empty slab is reformatted for a new class.
  static void format(Slab* slab, std::size_t cls) {
    const std::uint32_t stride = kClassStrides[cls];
    slab->class_index = static_cast<std::uint32_t>(cls);
    slab->capacity = static_cast<std::uint32_t>(kSlabBytes / stride);
    slab->live = 0;
    slab->free_head = nullptr;
    for (std::uint32_t i = slab->capacity; i-- > 0;) {
      std::uint8_t* block = slab->storage.get() + i * stride;
      write_owner(block, slab);
      write_next_free(block, slab->free_head);
      slab->free_head = block;
    }
  }

  void push_partial(std::size_t cls, Slab* slab) {
    slab->prev = nullptr;
    slab->next = partial[cls];
    if (partial[cls] != nullptr) partial[cls]->prev = slab;
    partial[cls] = slab;
    slab->in_partial = true;
  }

  void remove_partial(std::size_t cls, Slab* slab) {
    if (slab->prev != nullptr) slab->prev->next = slab->next;
    if (slab->next != nullptr) slab->next->prev = slab->prev;
    if (partial[cls] == slab) partial[cls] = slab->next;
    slab->prev = slab->next = nullptr;
    slab->in_partial = false;
  }
};

MessagePool::MessagePool() : state_(std::make_shared<State>()) {}
MessagePool::~MessagePool() = default;

MessagePool::Stats MessagePool::stats() const {
  const std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->stats;
}

MessagePool* MessagePool::current() { return tls_pool; }

MessagePool::Scope::Scope(MessagePool* pool) : prev_(tls_pool) {
  tls_pool = pool;
}
MessagePool::Scope::~Scope() { tls_pool = prev_; }

void* pool_allocate(const std::shared_ptr<MessagePool::State>& state,
                    std::size_t bytes) {
  using State = MessagePool::State;
  const std::size_t needed = bytes + kBlockHeader;
  std::size_t cls = 0;
  while (cls < kNumClasses && kClassStrides[cls] < needed) ++cls;
  if (cls == kNumClasses) {
    // Oversized: one-off system allocation with a null owner header so
    // deallocation can tell it apart from a slab block.
    auto* block = static_cast<std::uint8_t*>(::operator new(needed));
    State::write_owner(block, nullptr);
    {
      const std::lock_guard<std::mutex> lock(state->mutex);
      state->stats.fallback_allocs += 1;
    }
    return block + kBlockHeader;
  }

  const std::lock_guard<std::mutex> lock(state->mutex);
  State::Slab* slab = state->partial[cls];
  if (slab == nullptr) {
    if (!state->empty.empty()) {
      slab = state->empty.back();
      state->empty.pop_back();
      State::format(slab, cls);
      state->stats.slabs_recycled += 1;
    } else {
      auto owned = std::make_unique<State::Slab>();
      owned->storage = std::make_unique<std::uint8_t[]>(kSlabBytes);
      slab = owned.get();
      state->slabs.push_back(std::move(owned));
      State::format(slab, cls);
      state->stats.slabs_created += 1;
      state->stats.bytes_reserved += kSlabBytes;
    }
    state->push_partial(cls, slab);
  }
  auto* block = static_cast<std::uint8_t*>(slab->free_head);
  slab->free_head = State::read_next_free(block);
  slab->live += 1;
  if (slab->free_head == nullptr) state->remove_partial(cls, slab);
  state->stats.pool_allocs += 1;
  return block + kBlockHeader;
}

void pool_deallocate(const std::shared_ptr<MessagePool::State>& state,
                     void* ptr, std::size_t /*bytes*/) {
  using State = MessagePool::State;
  auto* block = static_cast<std::uint8_t*>(ptr) - kBlockHeader;
  State::Slab* slab = State::read_owner(block);
  if (slab == nullptr) {
    ::operator delete(block);
    return;
  }
  const std::lock_guard<std::mutex> lock(state->mutex);
  const std::size_t cls = slab->class_index;
  State::write_next_free(block, slab->free_head);
  slab->free_head = block;
  slab->live -= 1;
  if (!slab->in_partial) state->push_partial(cls, slab);
  if (slab->live == 0) {
    // Wholesale reclamation: drop the whole freelist in O(1) and park the
    // slab for reuse by any class (it is re-threaded on reformat).
    state->remove_partial(cls, slab);
    slab->free_head = nullptr;
    state->empty.push_back(slab);
  }
  state->stats.pool_frees += 1;
}

}  // namespace scup::sim
