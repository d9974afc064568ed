#include "graph/kosr.hpp"

#include <sstream>
#include <vector>

#include "graph/disjoint_paths.hpp"
#include "graph/scc.hpp"

namespace scup::graph {

std::string KosrReport::to_string() const {
  std::ostringstream os;
  os << "KosrReport{connected=" << weakly_connected
     << ", single_sink=" << single_sink
     << ", sink_k_connected=" << sink_k_connected
     << ", paths_to_sink=" << paths_to_sink << ", sink=" << sink << "}";
  return os.str();
}

KosrReport check_kosr(const Digraph& g, std::size_t k, const NodeSet& active) {
  KosrReport report;
  report.sink = NodeSet(g.node_count());

  report.weakly_connected = is_weakly_connected(g, active);

  const Condensation c = condense(g, active);
  report.single_sink = c.sink_components.size() == 1;
  if (!report.single_sink) return report;
  report.sink = c.scc.components[c.sink_components[0]];

  report.sink_k_connected = is_k_strongly_connected(g, k, report.sink);

  // Clause (4): k node-disjoint paths from every non-sink node to every sink
  // node, through any active node. No active arc leaves the sink, so when
  // it is k-strongly connected a node short of k paths to some sink member
  // is also short of k paths to one of the first k sink members (DESIGN.md
  // §4.10), and those are the only targets. When clause (3) fails every
  // sink member stays a target, so paths_to_sink still reports clause (4)
  // alone.
  std::vector<ProcessId> targets = report.sink.to_vector();
  if (report.sink_k_connected && targets.size() > k) targets.resize(k);
  report.paths_to_sink = true;
  DisjointPathEngine engine;
  engine.prepare(g, active);
  for (ProcessId i : active) {
    if (report.sink.contains(i)) continue;
    for (ProcessId j : targets) {
      if (!engine.has_k_paths(i, j, k)) {
        report.paths_to_sink = false;
        return report;
      }
    }
  }
  return report;
}

KosrReport check_kosr(const Digraph& g, std::size_t k) {
  return check_kosr(g, k, NodeSet::full(g.node_count()));
}

bool is_byzantine_safe(const Digraph& g, const NodeSet& faulty,
                       std::size_t f) {
  if (faulty.count() > f) return false;
  const NodeSet correct = faulty.complement();
  if (correct.empty()) return false;
  return check_kosr(g, f + 1, correct).ok();
}

bool satisfies_bft_cup_preconditions(const Digraph& g, const NodeSet& faulty,
                                     std::size_t f) {
  if (!is_byzantine_safe(g, faulty, f)) return false;
  const NodeSet sink = unique_sink_component(g, NodeSet::full(g.node_count()));
  if (sink.empty()) return false;
  const std::size_t correct_in_sink = sink.count() - sink.intersection_count(faulty);
  return correct_in_sink >= 2 * f + 1;
}

}  // namespace scup::graph
