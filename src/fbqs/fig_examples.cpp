#include "fbqs/fig_examples.hpp"

#include "graph/generators.hpp"

namespace scup::fbqs {

namespace {
/// Builds a NodeSet from paper (1-based) ids.
NodeSet paper_set(std::size_t universe, std::initializer_list<ProcessId> ids) {
  NodeSet s(universe);
  for (ProcessId id : ids) s.add(id - 1);
  return s;
}
}  // namespace

FbqsSystem fig1_system() {
  constexpr std::size_t n = 8;
  FbqsSystem sys(n);
  sys.set_slices(0, QSet::one_of({paper_set(n, {2, 5})}));
  sys.set_slices(1, QSet::one_of({paper_set(n, {4})}));
  sys.set_slices(2, QSet::one_of({paper_set(n, {5, 7})}));
  sys.set_slices(3, QSet::one_of({paper_set(n, {5, 6}), paper_set(n, {6, 8})}));
  sys.set_slices(4, QSet::one_of({paper_set(n, {6, 7})}));
  sys.set_slices(5, QSet::one_of({paper_set(n, {5, 7}), paper_set(n, {7, 8})}));
  sys.set_slices(6, QSet::one_of({paper_set(n, {5, 6}), paper_set(n, {6, 8})}));
  // Faulty process 8 (our 7): arbitrary slices (it may define anything).
  sys.set_slices(7, QSet::one_of({paper_set(n, {6, 7})}));
  return sys;
}

FbqsSystem fig2_local_system() {
  const graph::Digraph g = graph::fig2_graph();
  const std::size_t n = g.node_count();
  FbqsSystem sys(n);
  for (ProcessId i = 0; i < n; ++i) {
    const NodeSet pd = g.pd_of(i);
    // All subsets of PD_i of size |PD_i| - 1 (Theorem 2's construction,
    // which satisfies Lemmas 1 and 2 for f = 1).
    sys.set_slices(i, QSet::threshold_of(pd.count() - 1, pd));
  }
  return sys;
}

}  // namespace scup::fbqs
