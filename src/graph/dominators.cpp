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

DominatorTree::DominatorTree(std::size_t node_count, ProcessId root)
    : idom_(node_count, kInvalidProcess),
      depth_(node_count, 0),
      taken_(node_count, 0),
      first_child_(node_count, kInvalidProcess),
      next_sibling_(node_count, kInvalidProcess),
      prev_sibling_(node_count, kInvalidProcess),
      visited_(node_count, 0),
      bucket_head_(node_count, kInvalidProcess),
      bucket_next_(node_count, kInvalidProcess) {
  stack_.reserve(node_count);
  affected_.reserve(node_count);
  pending_.reserve(node_count);
  idom_[root] = root;
}

void DominatorTree::insert(const Digraph& g, ProcessId tail) {
  if (!contains(tail)) return;
  // Every node on pending_ is in the tree; its taken_ prefix grows one
  // edge at a time, so each step below sees exactly the edges taken so far.
  pending_.push_back(tail);
  while (!pending_.empty()) {
    const ProcessId u = pending_.back();
    const std::vector<ProcessId>& succ = g.successors(u);
    if (taken_[u] == succ.size()) {
      pending_.pop_back();
      continue;
    }
    const ProcessId v = succ[taken_[u]++];
    if (contains(v)) {
      insert_between(g, u, v);
    } else {
      attach(v, u);
      pending_.push_back(v);
    }
  }
}

void DominatorTree::attach(ProcessId v, ProcessId parent) {
  idom_[v] = parent;
  depth_[v] = depth_[parent] + 1;
  link(v, parent);
}

void DominatorTree::insert_between(const Digraph& g, ProcessId x,
                                   ProcessId y) {
  const ProcessId nca = nearest_common_ancestor(x, y);
  if (nca == y || nca == idom_[y]) return;
  // A node w is affected iff depth(w) > floor and some y → w path over
  // taken edges stays at depth >= depth(w). Buckets are drained from the
  // deepest level down: at level l, a search from each affected node of
  // depth l walks through nodes deeper than l (not affected, they only
  // pass the search on), marks nodes of depth l affected, and files
  // shallower nodes above the floor into their own level's bucket.
  const std::uint32_t floor = depth_[nca] + 1;
  ++stamp_;
  affected_.clear();
  visited_[y] = stamp_;
  push_bucket(y);
  for (std::uint32_t level = depth_[y]; level > floor; --level) {
    while (bucket_head_[level] != kInvalidProcess) {
      const ProcessId v = bucket_head_[level];
      bucket_head_[level] = bucket_next_[v];
      affected_.push_back(v);
      stack_.assign(1, v);
      while (!stack_.empty()) {
        const ProcessId u = stack_.back();
        stack_.pop_back();
        const std::vector<ProcessId>& succ = g.successors(u);
        for (std::uint32_t i = 0; i < taken_[u]; ++i) {
          const ProcessId w = succ[i];
          if (visited_[w] == stamp_ || depth_[w] <= floor) continue;
          visited_[w] = stamp_;
          if (depth_[w] < level) {
            push_bucket(w);
          } else {
            if (depth_[w] == level) affected_.push_back(w);
            stack_.push_back(w);
          }
        }
      }
    }
  }
  for (const ProcessId w : affected_) {
    unlink(w);
    idom_[w] = nca;
    link(w, nca);
  }
  // The affected nodes' new subtrees are disjoint, and every node outside
  // them keeps its depth.
  for (const ProcessId w : affected_) {
    depth_[w] = floor;
    stack_.assign(1, w);
    while (!stack_.empty()) {
      const ProcessId u = stack_.back();
      stack_.pop_back();
      for (ProcessId c = first_child_[u]; c != kInvalidProcess;
           c = next_sibling_[c]) {
        depth_[c] = depth_[u] + 1;
        stack_.push_back(c);
      }
    }
  }
}

ProcessId DominatorTree::nearest_common_ancestor(ProcessId a,
                                                 ProcessId b) const {
  while (depth_[a] > depth_[b]) a = idom_[a];
  while (depth_[b] > depth_[a]) b = idom_[b];
  while (a != b) {
    a = idom_[a];
    b = idom_[b];
  }
  return a;
}

void DominatorTree::link(ProcessId v, ProcessId parent) {
  const ProcessId head = first_child_[parent];
  next_sibling_[v] = head;
  prev_sibling_[v] = kInvalidProcess;
  if (head != kInvalidProcess) prev_sibling_[head] = v;
  first_child_[parent] = v;
}

void DominatorTree::unlink(ProcessId v) {
  const ProcessId prev = prev_sibling_[v];
  const ProcessId next = next_sibling_[v];
  if (prev != kInvalidProcess) {
    next_sibling_[prev] = next;
  } else {
    first_child_[idom_[v]] = next;
  }
  if (next != kInvalidProcess) prev_sibling_[next] = prev;
}

void DominatorTree::push_bucket(ProcessId v) {
  bucket_next_[v] = bucket_head_[depth_[v]];
  bucket_head_[depth_[v]] = v;
}

}  // namespace scup::graph
