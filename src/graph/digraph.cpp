#include "graph/digraph.hpp"

#include <sstream>
#include <stdexcept>

namespace scup::graph {

Digraph::Digraph(std::size_t n)
    : n_(n), succ_(n), pred_(n, NodeSet(n)) {}

void Digraph::check_node(ProcessId u) const {
  if (u >= n_) {
    throw std::out_of_range("Digraph: node " + std::to_string(u) +
                            " outside graph of size " + std::to_string(n_));
  }
}

void Digraph::add_edge(ProcessId u, ProcessId v) {
  check_node(u);
  check_node(v);
  if (u == v || pred_[v].contains(u)) return;
  succ_[u].push_back(v);
  pred_[v].add(u);
  ++edge_count_;
}

void Digraph::add_edges(ProcessId u, const NodeSet& targets) {
  check_node(u);
  if (targets.universe_size() != n_) {
    throw std::invalid_argument("add_edges: universe mismatch");
  }
  const auto is_new = [&](ProcessId v) {
    return v != u && !pred_[v].contains(u);
  };
  std::size_t added = 0;
  for (ProcessId v : targets) added += is_new(v);
  if (added == 0) return;
  std::vector<ProcessId>& succ = succ_[u];
  succ.reserve(succ.size() + added);
  for (ProcessId v : targets) {
    if (!is_new(v)) continue;
    succ.push_back(v);
    pred_[v].add(u);
  }
  edge_count_ += added;
}

bool Digraph::has_edge(ProcessId u, ProcessId v) const {
  check_node(u);
  check_node(v);
  return pred_[v].contains(u);
}

const std::vector<ProcessId>& Digraph::successors(ProcessId u) const {
  check_node(u);
  return succ_[u];
}

const NodeSet& Digraph::predecessors(ProcessId u) const {
  check_node(u);
  return pred_[u];
}

NodeSet Digraph::successor_set(ProcessId u) const {
  check_node(u);
  NodeSet s(n_);
  for (ProcessId v : succ_[u]) s.add(v);
  return s;
}

NodeSet Digraph::predecessor_set(ProcessId u) const {
  check_node(u);
  return pred_[u];
}

Digraph Digraph::reversed() const {
  Digraph r(n_);
  for (ProcessId u = 0; u < n_; ++u) {
    for (ProcessId v : succ_[u]) r.add_edge(v, u);
  }
  return r;
}

Digraph Digraph::undirected_closure() const {
  Digraph g(n_);
  for (ProcessId u = 0; u < n_; ++u) {
    for (ProcessId v : succ_[u]) {
      g.add_edge(u, v);
      g.add_edge(v, u);
    }
  }
  return g;
}

Digraph Digraph::induced_subgraph(const NodeSet& keep) const {
  if (keep.universe_size() != n_) {
    throw std::invalid_argument("induced_subgraph: universe mismatch");
  }
  Digraph g(n_);
  for (ProcessId u : keep) {
    for (ProcessId v : succ_[u]) {
      if (keep.contains(v)) g.add_edge(u, v);
    }
  }
  return g;
}

NodeSet Digraph::reachable_from(ProcessId start, const NodeSet& active) const {
  check_node(start);
  NodeSet visited(n_);
  if (!active.contains(start)) return visited;
  std::vector<ProcessId> stack{start};
  visited.add(start);
  while (!stack.empty()) {
    const ProcessId u = stack.back();
    stack.pop_back();
    for (ProcessId v : succ_[u]) {
      if (active.contains(v) && !visited.contains(v)) {
        visited.add(v);
        stack.push_back(v);
      }
    }
  }
  return visited;
}

NodeSet Digraph::reachable_from(ProcessId start) const {
  return reachable_from(start, NodeSet::full(n_));
}

std::string Digraph::to_string() const {
  std::ostringstream os;
  os << "Digraph(n=" << n_ << ", m=" << edge_count_ << ")";
  for (ProcessId u = 0; u < n_; ++u) {
    if (succ_[u].empty()) continue;
    os << "\n  " << u << " ->";
    for (ProcessId v : succ_[u]) os << ' ' << v;
  }
  return os.str();
}

}  // namespace scup::graph
