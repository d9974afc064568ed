#include "fbqs/qset.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace scup::fbqs {

QSet QSet::threshold_of(std::size_t threshold,
                        std::vector<ProcessId> validators) {
  return QSet(threshold, std::move(validators), {});
}

QSet QSet::threshold_of(std::size_t threshold, const NodeSet& validators) {
  return QSet(threshold, validators.to_vector(), {});
}

QSet QSet::one_of(const std::vector<NodeSet>& slices) {
  std::vector<QSet> inner;
  inner.reserve(slices.size());
  for (const NodeSet& s : slices) {
    if (s.empty()) throw std::invalid_argument("QSet::one_of: empty slice");
    inner.push_back(threshold_of(s.count(), s));
  }
  return QSet(1, {}, std::move(inner));
}

QSet::QSet(std::size_t threshold, std::vector<ProcessId> validators,
           std::vector<QSet> inner)
    : threshold_(threshold),
      validators_(std::move(validators)),
      inner_(std::move(inner)) {
  if (threshold_ > validators_.size() + inner_.size()) {
    throw std::invalid_argument(
        "QSet: threshold exceeds number of elements (" +
        std::to_string(threshold_) + " > " +
        std::to_string(validators_.size() + inner_.size()) + ")");
  }
}

bool QSet::satisfied_by(const NodeSet& nodes) const {
  if (threshold_ == 0) return true;
  std::size_t satisfied = 0;
  for (ProcessId v : validators_) {
    if (nodes.contains(v) && ++satisfied >= threshold_) return true;
  }
  for (const QSet& q : inner_) {
    if (q.satisfied_by(nodes) && ++satisfied >= threshold_) return true;
  }
  return false;
}

bool QSet::blocked_by(const NodeSet& nodes) const {
  if (threshold_ == 0) return false;  // empty qset cannot be blocked
  // Count elements that could still appear in a slice avoiding `nodes`;
  // once `threshold` of them are, such a slice exists and the rest of the
  // elements cannot change the verdict.
  std::size_t alive = 0;
  for (ProcessId v : validators_) {
    if (!nodes.contains(v) && ++alive >= threshold_) return false;
  }
  for (const QSet& q : inner_) {
    if (!q.blocked_by(nodes) && ++alive >= threshold_) return false;
  }
  return true;
}

NodeSet QSet::all_members(std::size_t universe) const {
  NodeSet s(universe);
  for (ProcessId v : validators_) s.add(v);
  for (const QSet& q : inner_) s |= q.all_members(universe);
  return s;
}

bool QSet::operator==(const QSet& other) const {
  return threshold_ == other.threshold_ && validators_ == other.validators_ &&
         inner_ == other.inner_;
}

std::string QSet::to_string() const {
  std::ostringstream os;
  os << threshold_ << "-of-[";
  bool first = true;
  for (ProcessId v : validators_) {
    if (!first) os << ", ";
    first = false;
    os << v;
  }
  for (const QSet& q : inner_) {
    if (!first) os << ", ";
    first = false;
    os << q.to_string();
  }
  os << ']';
  return os.str();
}

}  // namespace scup::fbqs
