#include "common/node_set.hpp"

#include <ostream>
#include <sstream>
#include <stdexcept>

namespace scup {

NodeSet::NodeSet(std::size_t universe, std::initializer_list<ProcessId> members)
    : NodeSet(universe) {
  for (ProcessId m : members) add(m);
}

NodeSet::NodeSet(std::size_t universe, const std::vector<ProcessId>& members)
    : NodeSet(universe) {
  for (ProcessId m : members) add(m);
}

NodeSet NodeSet::full(std::size_t universe) {
  NodeSet s(universe);
  std::uint64_t* w = s.data();
  std::fill_n(w, s.words(), ~0ULL);
  // Clear the bits beyond the universe in the last word.
  const std::size_t used = universe % kBits;
  if (used != 0) w[s.words() - 1] &= (1ULL << used) - 1;
  return s;
}

void NodeSet::clear() { std::fill_n(data(), words(), 0); }

void NodeSet::throw_out_of_universe(ProcessId id, std::size_t universe) {
  throw std::out_of_range("NodeSet::add: id " + std::to_string(id) +
                          " outside universe of size " +
                          std::to_string(universe));
}

void NodeSet::throw_universe_mismatch(std::size_t lhs, std::size_t rhs) {
  throw std::invalid_argument("NodeSet operation on mismatched universes: " +
                              std::to_string(lhs) + " vs " +
                              std::to_string(rhs));
}

NodeSet NodeSet::complement() const {
  NodeSet result = NodeSet::full(universe_);
  result -= *this;
  return result;
}

std::size_t NodeSet::intersection_count(const NodeSet& other) const {
  check_same_universe(other);
  const std::uint64_t* w = data();
  const std::uint64_t* o = other.data();
  std::size_t c = 0;
  for (std::size_t i = 0; i < words(); ++i) {
    c += static_cast<std::size_t>(std::popcount(w[i] & o[i]));
  }
  return c;
}

std::strong_ordering NodeSet::operator<=>(const NodeSet& other) const {
  if (auto c = universe_ <=> other.universe_; c != 0) return c;
  const std::uint64_t* w = data();
  const std::uint64_t* o = other.data();
  for (std::size_t i = 0; i < words(); ++i) {
    if (auto c = w[i] <=> o[i]; c != 0) return c;
  }
  return std::strong_ordering::equal;
}

std::vector<ProcessId> NodeSet::to_vector() const {
  std::vector<ProcessId> v;
  v.reserve(count());
  for (ProcessId p : *this) v.push_back(p);
  return v;
}

ProcessId NodeSet::min_member() const {
  ProcessId first = next_member(0);
  return first == universe_ ? kInvalidProcess : first;
}

std::size_t NodeSet::hash() const {
  // FNV-1a over the words plus the universe size.
  std::size_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(universe_);
  const std::uint64_t* w = data();
  for (std::size_t i = 0; i < words(); ++i) mix(w[i]);
  return h;
}

std::string NodeSet::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const NodeSet& set) {
  os << '{';
  bool first = true;
  for (ProcessId p : set) {
    if (!first) os << ", ";
    first = false;
    os << p;
  }
  os << '}';
  return os;
}

}  // namespace scup
