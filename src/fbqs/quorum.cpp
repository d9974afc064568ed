#include "fbqs/quorum.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace scup::fbqs {

FbqsSystem::FbqsSystem(std::size_t n)
    : n_(n), slices_(n), has_slices_(n, false) {}

void FbqsSystem::set_slices(ProcessId i, QSet slices) {
  if (i >= n_) throw std::out_of_range("FbqsSystem::set_slices: bad id");
  slices_[i] = std::move(slices);
  has_slices_[i] = true;
}

const QSet& FbqsSystem::slices_of(ProcessId i) const {
  if (i >= n_) throw std::out_of_range("FbqsSystem::slices_of: bad id");
  if (!has_slices_[i]) {
    throw std::logic_error("FbqsSystem::slices_of: no slices for process " +
                           std::to_string(i));
  }
  return slices_[i];
}

bool FbqsSystem::has_slices(ProcessId i) const {
  return i < n_ && has_slices_[i];
}

void FbqsSystem::require_universe(const NodeSet& s, const char* caller) const {
  if (s.universe_size() != n_) {
    throw std::invalid_argument(
        std::string("FbqsSystem::") + caller + ": universe " +
        std::to_string(s.universe_size()) + " does not match n=" +
        std::to_string(n_));
  }
}

bool FbqsSystem::is_quorum(const NodeSet& q) const {
  require_universe(q, "is_quorum");
  for (ProcessId i : q) {
    if (!has_slices_[i] || !slices_[i].satisfied_by(q)) return false;
  }
  return true;
}

bool FbqsSystem::is_quorum_for(ProcessId i, const NodeSet& q) const {
  return is_quorum(q) && q.contains(i);
}

NodeSet FbqsSystem::quorum_closure(NodeSet candidate) const {
  require_universe(candidate, "quorum_closure");
  // Collect a pass's removals first, then apply them: every member is
  // judged against the same start-of-pass set, and the iteration never
  // walks a set that is mutating under it.
  bool changed = true;
  while (changed) {
    changed = false;
    NodeSet removals(n_);
    for (ProcessId i : candidate) {
      if (!has_slices_[i] || !slices_[i].satisfied_by(candidate)) {
        removals.add(i);
      }
    }
    if (!removals.empty()) {
      candidate -= removals;
      changed = true;
    }
  }
  return candidate;
}

std::optional<NodeSet> FbqsSystem::find_quorum_for(
    ProcessId i, const NodeSet& within) const {
  const NodeSet closure = quorum_closure(within);
  if (closure.contains(i)) return closure;
  return std::nullopt;
}

std::vector<NodeSet> FbqsSystem::all_quorums(std::size_t max_universe) const {
  if (n_ > max_universe) {
    throw std::invalid_argument(
        "FbqsSystem::all_quorums: universe too large for exhaustive "
        "enumeration (n=" +
        std::to_string(n_) + ")");
  }
  std::vector<NodeSet> quorums;
  const std::uint64_t limit = 1ULL << n_;
  for (std::uint64_t mask = 1; mask < limit; ++mask) {
    NodeSet q(n_);
    for (std::size_t b = 0; b < n_; ++b) {
      if ((mask >> b) & 1ULL) q.add(static_cast<ProcessId>(b));
    }
    if (is_quorum(q)) quorums.push_back(std::move(q));
  }
  return quorums;
}

std::vector<NodeSet> FbqsSystem::minimal_quorums_for(
    ProcessId i, std::size_t max_universe) const {
  std::vector<NodeSet> with_i;
  for (NodeSet& q : all_quorums(max_universe)) {
    if (q.contains(i)) with_i.push_back(std::move(q));
  }
  // Keep inclusion-minimal elements.
  std::vector<NodeSet> minimal;
  for (const NodeSet& q : with_i) {
    bool is_minimal = true;
    for (const NodeSet& other : with_i) {
      if (&other != &q && other.subset_of(q) && !(other == q)) {
        is_minimal = false;
        break;
      }
    }
    if (is_minimal) minimal.push_back(q);
  }
  return minimal;
}

bool FbqsSystem::intertwined(ProcessId i, ProcessId j, std::size_t f,
                             std::size_t max_universe) const {
  const auto qi = minimal_quorums_for(i, max_universe);
  const auto qj = minimal_quorums_for(j, max_universe);
  if (qi.empty() || qj.empty()) return false;  // no quorum at all
  for (const NodeSet& a : qi) {
    for (const NodeSet& b : qj) {
      if (a.intersection_count(b) <= f) return false;
    }
  }
  return true;
}

FbqsSystem::IntertwinedReport FbqsSystem::check_intertwined(
    const NodeSet& group, std::size_t f, std::size_t max_universe) const {
  IntertwinedReport report;
  report.ok = true;

  // Precompute minimal quorums once per member.
  std::vector<std::pair<ProcessId, std::vector<NodeSet>>> quorums;
  for (ProcessId i : group) {
    quorums.emplace_back(i, minimal_quorums_for(i, max_universe));
    if (quorums.back().second.empty()) {
      report.ok = false;
      report.worst_i = report.worst_j = i;
      report.min_intersection = 0;
      return report;
    }
  }
  std::size_t min_intersection = n_ + 1;  // strictly above any real value
  for (const auto& [i, qi] : quorums) {
    for (const auto& [j, qj] : quorums) {
      if (j < i) continue;
      for (const NodeSet& a : qi) {
        for (const NodeSet& b : qj) {
          const std::size_t inter = a.intersection_count(b);
          ++report.pairs_examined;
          if (inter < min_intersection) {
            min_intersection = inter;
            report.worst_i = i;
            report.worst_j = j;
          }
          if (inter <= f) report.ok = false;
        }
      }
    }
  }
  // A group with no quorum pairs (empty group) is vacuously intertwined;
  // report 0 rather than leaking the n+1 search sentinel.
  report.min_intersection = report.pairs_examined == 0 ? 0 : min_intersection;
  return report;
}

bool FbqsSystem::is_consensus_cluster(const NodeSet& I, const NodeSet& W,
                                      std::size_t f) const {
  if (I.empty() || !I.subset_of(W)) return false;
  // Quorum availability: every member has a quorum inside I.
  for (ProcessId i : I) {
    if (!find_quorum_for(i, I)) return false;
  }
  // Quorum intersection (threshold form).
  return check_intertwined(I, f).ok;
}

std::optional<NodeSet> FbqsSystem::maximal_consensus_cluster(
    const NodeSet& W, std::size_t f) const {
  // The success condition of the paper is C = W; test it first.
  if (is_consensus_cluster(W, W, f)) return W;

  // Otherwise search exhaustively among subsets (small universes only —
  // reuse the all_quorums guard indirectly by checking n_).
  if (n_ > 20) {
    throw std::invalid_argument(
        "maximal_consensus_cluster: exhaustive search needs n <= 20");
  }
  std::optional<NodeSet> best;
  const auto members = W.to_vector();
  const std::uint64_t limit = 1ULL << members.size();
  for (std::uint64_t mask = 1; mask < limit; ++mask) {
    NodeSet candidate(n_);
    for (std::size_t b = 0; b < members.size(); ++b) {
      if ((mask >> b) & 1ULL) candidate.add(members[b]);
    }
    if (best && candidate.count() <= best->count()) continue;
    if (is_consensus_cluster(candidate, W, f)) best = candidate;
  }
  return best;
}

}  // namespace scup::fbqs
