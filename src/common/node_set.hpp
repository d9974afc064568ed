// NodeSet: a dynamic bitset over process ids with full set algebra.
//
// This is the workhorse representation for quorums, slices, sink components
// and failure sets. All set operations are O(universe/64).
//
// Storage: a set over at most kInlineUniverse = 256 ids keeps its four
// 64-bit words inside the object, so constructing, copying, assigning and
// combining it allocates nothing and follows no pointer. Every workload of
// the repository benchmark (n <= 128) and the E11 rows up to n = 256 fit.
// A larger universe keeps its words in one heap block the set owns:
// copy-assignment reuses that block when the word count matches, and a
// moved-from heap-backed set is the empty set over universe 0. The bound is
// a constant, not a knob; where the words live changes no result. The hot
// operations are defined here so every call site sees the word loops; the
// two error paths stay out of line.
#pragma once

#include <algorithm>
#include <bit>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace scup {

class NodeSet {
 public:
  /// Largest universe whose words live inside the object.
  static constexpr std::size_t kInlineUniverse = 256;

  NodeSet() = default;

  /// Creates an empty set over a universe of `universe` process ids.
  explicit NodeSet(std::size_t universe) : universe_(universe) {
    if (on_heap()) heap_ = new std::uint64_t[words()]();
  }

  /// Creates a set over `universe` containing exactly `members`.
  NodeSet(std::size_t universe, std::initializer_list<ProcessId> members);
  NodeSet(std::size_t universe, const std::vector<ProcessId>& members);

  NodeSet(const NodeSet& other) : universe_(other.universe_) {
    if (on_heap()) {
      heap_ = new std::uint64_t[words()];
      std::copy_n(other.heap_, words(), heap_);
    } else {
      std::copy_n(other.inline_, kInlineWords, inline_);
    }
  }

  NodeSet(NodeSet&& other) noexcept : universe_(other.universe_) {
    if (on_heap()) {
      heap_ = other.heap_;
      other.reset_to_empty_universe();
    } else {
      std::copy_n(other.inline_, kInlineWords, inline_);
    }
  }

  NodeSet& operator=(const NodeSet& other) {
    if (this == &other) return *this;
    if (other.on_heap()) {
      if (!on_heap() || words() != other.words()) {
        auto* block = new std::uint64_t[other.words()];
        release();
        heap_ = block;
      }
      std::copy_n(other.heap_, other.words(), heap_);
    } else {
      release();
      std::copy_n(other.inline_, kInlineWords, inline_);
    }
    universe_ = other.universe_;
    return *this;
  }

  NodeSet& operator=(NodeSet&& other) noexcept {
    if (this == &other) return *this;
    release();
    universe_ = other.universe_;
    if (on_heap()) {
      heap_ = other.heap_;
      other.reset_to_empty_universe();
    } else {
      std::copy_n(other.inline_, kInlineWords, inline_);
    }
    return *this;
  }

  ~NodeSet() { release(); }

  /// The full set {0, ..., universe-1}.
  static NodeSet full(std::size_t universe);

  std::size_t universe_size() const { return universe_; }

  bool empty() const {
    const std::uint64_t* w = data();
    for (std::size_t i = 0; i < words(); ++i) {
      if (w[i] != 0) return false;
    }
    return true;
  }

  std::size_t count() const {
    const std::uint64_t* w = data();
    std::size_t c = 0;
    for (std::size_t i = 0; i < words(); ++i) {
      c += static_cast<std::size_t>(std::popcount(w[i]));
    }
    return c;
  }

  bool contains(ProcessId id) const {
    if (id >= universe_) return false;
    return (data()[id / kBits] >> (id % kBits)) & 1ULL;
  }

  void add(ProcessId id) {
    if (id >= universe_) throw_out_of_universe(id, universe_);
    data()[id / kBits] |= 1ULL << (id % kBits);
  }

  void remove(ProcessId id) {
    if (id >= universe_) return;
    data()[id / kBits] &= ~(1ULL << (id % kBits));
  }

  void clear();

  /// Set algebra. Operands must share the same universe size.
  NodeSet& operator|=(const NodeSet& other) {
    check_same_universe(other);
    std::uint64_t* w = data();
    const std::uint64_t* o = other.data();
    for (std::size_t i = 0; i < words(); ++i) w[i] |= o[i];
    return *this;
  }
  NodeSet& operator&=(const NodeSet& other) {
    check_same_universe(other);
    std::uint64_t* w = data();
    const std::uint64_t* o = other.data();
    for (std::size_t i = 0; i < words(); ++i) w[i] &= o[i];
    return *this;
  }
  NodeSet& operator-=(const NodeSet& other) {
    check_same_universe(other);
    std::uint64_t* w = data();
    const std::uint64_t* o = other.data();
    for (std::size_t i = 0; i < words(); ++i) w[i] &= ~o[i];
    return *this;
  }
  friend NodeSet operator|(NodeSet a, const NodeSet& b) { return a |= b; }
  friend NodeSet operator&(NodeSet a, const NodeSet& b) { return a &= b; }
  friend NodeSet operator-(NodeSet a, const NodeSet& b) { return a -= b; }

  /// Complement within the universe.
  NodeSet complement() const;

  bool subset_of(const NodeSet& other) const {
    check_same_universe(other);
    const std::uint64_t* w = data();
    const std::uint64_t* o = other.data();
    for (std::size_t i = 0; i < words(); ++i) {
      if ((w[i] & ~o[i]) != 0) return false;
    }
    return true;
  }
  bool superset_of(const NodeSet& other) const { return other.subset_of(*this); }
  bool intersects(const NodeSet& other) const {
    check_same_universe(other);
    const std::uint64_t* w = data();
    const std::uint64_t* o = other.data();
    for (std::size_t i = 0; i < words(); ++i) {
      if ((w[i] & o[i]) != 0) return true;
    }
    return false;
  }
  std::size_t intersection_count(const NodeSet& other) const {
    check_same_universe(other);
    const std::uint64_t* w = data();
    const std::uint64_t* o = other.data();
    std::size_t c = 0;
    for (std::size_t i = 0; i < words(); ++i) {
      c += static_cast<std::size_t>(std::popcount(w[i] & o[i]));
    }
    return c;
  }

  bool operator==(const NodeSet& other) const {
    return universe_ == other.universe_ &&
           std::equal(data(), data() + words(), other.data());
  }
  /// Lexicographic order on the bit pattern; useful for canonical sorting.
  std::strong_ordering operator<=>(const NodeSet& other) const;

  std::vector<ProcessId> to_vector() const;
  std::string to_string() const;

  /// Smallest member, or kInvalidProcess when empty.
  ProcessId min_member() const;

  /// Iteration over members in increasing id order.
  class const_iterator {
   public:
    using value_type = ProcessId;
    using difference_type = std::ptrdiff_t;

    const_iterator(const NodeSet* set, ProcessId pos) : set_(set), pos_(pos) {}
    ProcessId operator*() const { return pos_; }
    const_iterator& operator++() {
      pos_ = set_->next_member(pos_ + 1);
      return *this;
    }
    bool operator!=(const const_iterator& o) const { return pos_ != o.pos_; }
    bool operator==(const const_iterator& o) const { return pos_ == o.pos_; }

   private:
    const NodeSet* set_;
    ProcessId pos_;
  };

  const_iterator begin() const { return {this, next_member(0)}; }
  const_iterator end() const {
    return {this, static_cast<ProcessId>(universe_)};
  }

 private:
  static constexpr std::size_t kBits = 64;
  static constexpr std::size_t kInlineWords = kInlineUniverse / kBits;

  bool on_heap() const { return universe_ > kInlineUniverse; }
  std::size_t words() const { return (universe_ + kBits - 1) / kBits; }
  std::uint64_t* data() { return on_heap() ? heap_ : inline_; }
  const std::uint64_t* data() const { return on_heap() ? heap_ : inline_; }

  /// Frees a heap block; the caller sets universe_ and the words after.
  void release() {
    if (on_heap()) delete[] heap_;
  }
  /// Leaves a set whose block was handed away as the empty universe-0 set.
  void reset_to_empty_universe() {
    universe_ = 0;
    std::fill_n(inline_, kInlineWords, 0);
  }

  /// First member with id >= from, or universe_ if none.
  ProcessId next_member(ProcessId from) const {
    if (from >= universe_) return static_cast<ProcessId>(universe_);
    const std::uint64_t* w = data();
    std::size_t word = from / kBits;
    std::uint64_t current = w[word] & (~0ULL << (from % kBits));
    while (true) {
      if (current != 0) {
        const ProcessId id = static_cast<ProcessId>(
            word * kBits + static_cast<std::size_t>(std::countr_zero(current)));
        return id < universe_ ? id : static_cast<ProcessId>(universe_);
      }
      ++word;
      if (word >= words()) return static_cast<ProcessId>(universe_);
      current = w[word];
    }
  }

  void check_same_universe(const NodeSet& other) const {
    if (universe_ != other.universe_) {
      throw_universe_mismatch(universe_, other.universe_);
    }
  }
  [[noreturn]] static void throw_out_of_universe(ProcessId id,
                                                 std::size_t universe);
  [[noreturn]] static void throw_universe_mismatch(std::size_t lhs,
                                                   std::size_t rhs);

  std::size_t universe_ = 0;
  union {
    std::uint64_t inline_[kInlineWords] = {};  // universe_ <= kInlineUniverse
    std::uint64_t* heap_;                      // otherwise: words() words
  };
};

std::ostream& operator<<(std::ostream& os, const NodeSet& set);

}  // namespace scup
