// Quorum sets in the stellar-core style: a threshold over a list of
// validators and (optionally) nested inner sets.
//
// A QSet denotes a family of slices (S_i in the paper): every subset
// formed by picking `threshold` elements among (validators ∪ inner sets),
// where picking an inner set means recursively picking one of its slices.
// It is the one slice-family type: SCP decides with it and FbqsSystem
// analyses it. Algorithm 2's families — "all m-subsets of V" — are flat
// QSets (threshold=m, validators=V), which keeps the exponential families
// implicit; a hand-written slice list is a 1-of nested QSet (one_of).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/node_set.hpp"
#include "common/types.hpp"

namespace scup::fbqs {

class QSet {
 public:
  QSet() = default;

  /// Flat threshold QSet: any `threshold` of `validators`.
  static QSet threshold_of(std::size_t threshold,
                           std::vector<ProcessId> validators);
  static QSet threshold_of(std::size_t threshold, const NodeSet& validators);

  /// Explicit slice list {S_1, ..., S_k}: 1-of-[|S_1|-of-S_1, ...].
  /// Rejects an empty slice; an empty list fails the threshold check.
  static QSet one_of(const std::vector<NodeSet>& slices);

  /// Nested QSet.
  QSet(std::size_t threshold, std::vector<ProcessId> validators,
       std::vector<QSet> inner);

  std::size_t threshold() const { return threshold_; }
  const std::vector<ProcessId>& validators() const { return validators_; }
  const std::vector<QSet>& inner_sets() const { return inner_; }

  bool empty() const { return threshold_ == 0; }

  /// True iff some slice denoted by this QSet is contained in `nodes`
  /// (i.e. at least `threshold` members/inner sets are satisfied by
  /// `nodes`). This is the "∃ S ∈ S_i : S ⊆ Q" test of Definition 1.
  /// Returns as soon as `threshold` elements are satisfied.
  bool satisfied_by(const NodeSet& nodes) const;

  /// True iff `nodes` is a v-blocking set for this QSet: it intersects
  /// every slice. Equivalently, fewer than `threshold` members/inner sets
  /// remain satisfiable when `nodes` is excluded. Returns as soon as
  /// `threshold` elements remain satisfiable.
  bool blocked_by(const NodeSet& nodes) const;

  /// All processes mentioned anywhere in the QSet.
  NodeSet all_members(std::size_t universe) const;

  /// Number of top-level elements (validators + inner sets).
  std::size_t element_count() const {
    return validators_.size() + inner_.size();
  }

  bool operator==(const QSet& other) const;

  std::string to_string() const;

 private:
  std::size_t threshold_ = 0;
  std::vector<ProcessId> validators_;
  std::vector<QSet> inner_;
};

}  // namespace scup::fbqs
