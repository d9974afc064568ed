#include "graph/disjoint_paths.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace scup::graph {

// Flow-network layout: graph node w becomes w_in = 2w and w_out = 2w + 1.
// The split arc w_in -> w_out carries capacity 1 (raised to `big_` for the
// query endpoints); original edge (u, v) becomes u_out -> v_in with
// capacity 1. Arcs are stored with their reverse arc at index ^1.

void DisjointPathEngine::prepare(const Digraph& g, const NodeSet& active) {
  n_ = g.node_count();
  big_ = static_cast<int>(n_) + 1;
  active_ = active;
  arcs_.clear();
  base_cap_.clear();
  head_.assign(2 * n_, -1);
  split_arc_.assign(n_, -1);

  const auto add_arc = [this](int u, int v, int cap) {
    const int index = static_cast<int>(arcs_.size());
    arcs_.push_back({v, head_[u]});
    base_cap_.push_back(cap);
    head_[u] = index;
    arcs_.push_back({u, head_[v]});
    base_cap_.push_back(0);
    head_[v] = index + 1;
    return index;
  };

  for (ProcessId w : active) {
    split_arc_[w] = add_arc(static_cast<int>(2 * w),
                            static_cast<int>(2 * w + 1), 1);
    for (ProcessId x : g.successors(w)) {
      if (active.contains(x)) {
        add_arc(static_cast<int>(2 * w + 1), static_cast<int>(2 * x), 1);
      }
    }
  }
  level_.assign(2 * n_, -1);
  prepared_ = true;
}

std::size_t DisjointPathEngine::max_disjoint_paths(ProcessId u, ProcessId v,
                                                   std::size_t limit) {
  if (!prepared_) {
    throw std::logic_error("DisjointPathEngine: query before prepare()");
  }
  if (u == v) {
    throw std::invalid_argument("disjoint paths: endpoints must differ");
  }
  if (u >= n_ || v >= n_) {
    throw std::out_of_range("disjoint paths: node out of range");
  }
  if (!active_.contains(u) || !active_.contains(v)) return 0;

  ++query_count_;
  cap_ = base_cap_;
  cap_[split_arc_[u]] = big_;
  cap_[split_arc_[v]] = big_;

  const int s = static_cast<int>(2 * u + 1);
  const int t = static_cast<int>(2 * v);
  std::size_t flow = 0;
  while (flow < limit && bfs(s, t)) {
    iter_ = head_;
    while (flow < limit) {
      const int pushed = dfs(s, t, std::numeric_limits<int>::max());
      if (pushed == 0) break;
      flow += static_cast<std::size_t>(pushed);
    }
  }
  return flow;
}

bool DisjointPathEngine::has_k_paths(ProcessId u, ProcessId v, std::size_t k) {
  if (k == 0) return true;
  return max_disjoint_paths(u, v, k) >= k;
}

DisjointPathEngine::VertexCut DisjointPathEngine::extract_cut(ProcessId u,
                                                              ProcessId v) {
  if (!prepared_) {
    throw std::logic_error("DisjointPathEngine::extract_cut before prepare()");
  }
  // Residual-reachable flow nodes from the source of the last query.
  level_.assign(head_.size(), -1);
  queue_.clear();
  const int s = static_cast<int>(2 * u + 1);
  level_[s] = 0;
  queue_.push_back(s);
  for (std::size_t qi = 0; qi < queue_.size(); ++qi) {
    const int x = queue_[qi];
    for (int e = head_[x]; e != -1; e = arcs_[e].next) {
      if (cap_[e] > 0 && level_[arcs_[e].to] == -1) {
        level_[arcs_[e].to] = 0;
        queue_.push_back(arcs_[e].to);
      }
    }
  }

  VertexCut result{NodeSet(n_), NodeSet(n_)};
  // Source side: nodes whose out-half is residual-reachable (their outgoing
  // edges can still feed flow).
  for (ProcessId w : active_) {
    if (level_[2 * w + 1] != -1) result.source_side.add(w);
  }
  // Cover every saturated arc crossing the frontier with one vertex on it:
  //  - a split arc w_in -> w_out is covered by w,
  //  - an edge arc a_out -> b_in by b, unless b is the target v. Then a is
  //    the source u: the arc is the direct edge u -> v, which no internal
  //    vertex covers and which contributes exactly one path on its own.
  //    A saturated arc a_out -> v_in from any other a would carry the one
  //    unit of flow through a's split arc, so a_out would be
  //    residual-reachable only from v_in, which a failed query leaves
  //    unreachable; such an a is never on the source side.
  for (ProcessId w : active_) {
    if (level_[2 * w] != -1 && level_[2 * w + 1] == -1) result.cut.add(w);
    if (level_[2 * w + 1] == -1) continue;
    for (int e = head_[2 * w + 1]; e != -1; e = arcs_[e].next) {
      if (e % 2 != 0 || cap_[e] > 0) continue;  // reverse arc or unsaturated
      const int to = arcs_[e].to;
      if (level_[to] != -1) continue;  // not crossing
      const auto b = static_cast<ProcessId>(to / 2);
      if (b != v) result.cut.add(b);
    }
  }
  return result;
}

bool DisjointPathEngine::bfs(int s, int t) {
  level_.assign(head_.size(), -1);
  queue_.clear();
  level_[s] = 0;
  queue_.push_back(s);
  for (std::size_t qi = 0; qi < queue_.size(); ++qi) {
    const int u = queue_[qi];
    for (int e = head_[u]; e != -1; e = arcs_[e].next) {
      if (cap_[e] > 0 && level_[arcs_[e].to] == -1) {
        level_[arcs_[e].to] = level_[u] + 1;
        queue_.push_back(arcs_[e].to);
      }
    }
  }
  return level_[t] != -1;
}

int DisjointPathEngine::dfs(int u, int t, int pushed) {
  if (u == t) return pushed;
  for (int& e = iter_[u]; e != -1; e = arcs_[e].next) {
    if (cap_[e] > 0 && level_[arcs_[e].to] == level_[u] + 1) {
      const int got = dfs(arcs_[e].to, t, std::min(pushed, cap_[e]));
      if (got > 0) {
        cap_[e] -= got;
        cap_[e ^ 1] += got;
        return got;
      }
    }
  }
  return 0;
}

std::size_t max_vertex_disjoint_paths(const Digraph& g, ProcessId u,
                                      ProcessId v, const NodeSet& active) {
  if (u >= g.node_count() || v >= g.node_count()) {
    throw std::out_of_range("disjoint paths: node out of range");
  }
  DisjointPathEngine engine;
  engine.prepare(g, active);
  return engine.max_disjoint_paths(u, v, g.node_count() + 1);
}

std::size_t max_vertex_disjoint_paths(const Digraph& g, ProcessId u,
                                      ProcessId v) {
  return max_vertex_disjoint_paths(g, u, v, NodeSet::full(g.node_count()));
}

bool has_k_vertex_disjoint_paths(const Digraph& g, ProcessId u, ProcessId v,
                                 std::size_t k, const NodeSet& active) {
  if (k == 0) return true;
  if (u >= g.node_count() || v >= g.node_count()) {
    throw std::out_of_range("disjoint paths: node out of range");
  }
  DisjointPathEngine engine;
  engine.prepare(g, active);
  return engine.has_k_paths(u, v, k);
}

bool is_k_strongly_connected(const Digraph& g, std::size_t k,
                             const NodeSet& active) {
  // Even's reduction (DESIGN.md §4.10): a pair short of k paths has a
  // separator of at most k - 1 nodes, which misses one of the first k
  // active nodes, and a pair through that anchor is short too. So only
  // pairs with an anchor endpoint are checked, in both directions; pairs
  // of two anchors are checked once, from the lower anchor.
  const auto nodes = active.to_vector();
  if (nodes.size() <= 1) return true;
  const std::size_t anchors = std::min(k, nodes.size());
  DisjointPathEngine engine;
  engine.prepare(g, active);
  for (std::size_t a = 0; a < anchors; ++a) {
    for (std::size_t w = a + 1; w < nodes.size(); ++w) {
      if (!engine.has_k_paths(nodes[a], nodes[w], k) ||
          !engine.has_k_paths(nodes[w], nodes[a], k)) {
        return false;
      }
    }
  }
  return true;
}

bool is_k_strongly_connected(const Digraph& g, std::size_t k) {
  return is_k_strongly_connected(g, k, NodeSet::full(g.node_count()));
}

bool is_f_reachable(const Digraph& g, ProcessId i, ProcessId j, std::size_t f,
                    const NodeSet& correct) {
  if (i == j) return true;
  return has_k_vertex_disjoint_paths(g, i, j, f + 1, correct);
}

}  // namespace scup::graph
