#include "graph/dominators.hpp"

#include <algorithm>
#include <utility>

namespace scup::graph {

std::vector<ProcessId> immediate_dominators(const Digraph& g, ProcessId root,
                                            const NodeSet& active) {
  const std::size_t n = g.node_count();
  std::vector<ProcessId> idom(n, kInvalidProcess);
  if (root >= n || !active.contains(root)) return idom;

  // Reverse postorder over the subgraph reachable from root.
  std::vector<ProcessId> order;
  order.reserve(n);
  std::vector<bool> seen(n, false);
  std::vector<std::pair<ProcessId, std::size_t>> stack;
  stack.emplace_back(root, 0);
  seen[root] = true;
  while (!stack.empty()) {
    const ProcessId u = stack.back().first;
    std::size_t& next = stack.back().second;
    const auto& succ = g.successors(u);
    bool descended = false;
    while (next < succ.size()) {
      const ProcessId v = succ[next++];
      if (active.contains(v) && !seen[v]) {
        seen[v] = true;
        stack.emplace_back(v, 0);
        descended = true;
        break;
      }
    }
    if (descended) continue;
    order.push_back(u);
    stack.pop_back();
  }
  std::reverse(order.begin(), order.end());

  std::vector<std::size_t> rpo_index(n, 0);
  for (std::size_t i = 0; i < order.size(); ++i) rpo_index[order[i]] = i;

  const auto intersect = [&](ProcessId a, ProcessId b) {
    while (a != b) {
      while (rpo_index[a] > rpo_index[b]) a = idom[a];
      while (rpo_index[b] > rpo_index[a]) b = idom[b];
    }
    return a;
  };

  idom[root] = root;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 1; i < order.size(); ++i) {
      const ProcessId u = order[i];
      ProcessId new_idom = kInvalidProcess;
      for (ProcessId p : g.predecessors(u)) {
        if (!active.contains(p) || idom[p] == kInvalidProcess) continue;
        new_idom = new_idom == kInvalidProcess ? p : intersect(p, new_idom);
      }
      if (new_idom != idom[u]) {
        idom[u] = new_idom;
        changed = true;
      }
    }
  }
  return idom;
}

}  // namespace scup::graph
