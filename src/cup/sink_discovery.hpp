// The SINK algorithm (direct sink discovery, Section VI step 1-3),
// reconstructed from the paper's three-step description of the BFT-CUP
// primitive of Alchieri et al.:
//
//  1. Knowledge expansion: starting from PD_i, process i queries every
//     process it can reach in its *certified knowledge graph* (the union of
//     PD certificates received so far) and merges the returned
//     certificates. A process j is admitted into the candidate set iff
//     j ∈ {i} ∪ PD_i (i's own oracle) or j is f-reachable from i in the
//     certified graph (Definition 9: f+1 internally-vertex-disjoint paths).
//     f-reachability is what makes expansion Byzantine-resilient: a
//     fabricated node needs f+1 disjoint certified paths, and with at most
//     f liars one of those paths is made of correct certificates only — so
//     everything admitted is genuinely reachable through correct knowledge,
//     while the safe Byzantine failure pattern ((f+1)-OSR residual)
//     guarantees every real sink member is admitted.
//  2. Once at most f candidates are unresponsive, i publishes
//     KNOWN(candidate set) to the candidates (republished on change).
//  3. If >= |V| - f members of V itself (self included) report KNOWN = V,
//     where V is i's candidate set and |V| >= 2f+1, then i concludes it is
//     a sink member and V is the sink (Lemma 6). Non-sink members' matching
//     never succeeds (their candidate strictly contains the sink, whose
//     members report differently); they rely on Algorithm 3's indirect
//     path.
//
// Incremental admission (the discovery→consensus hot path): the certified
// graph and the f-reachability property are both monotone, so an admitted
// node stays admitted and update() re-decides only pending nodes, and only
// after a certificate batch added edges. The set reachable from self also
// only grows, so it is kept as edges arrive: an edge out of it extends it by
// one DFS from the edge's head. Each pending node goes through
// Menger's degree bounds, then through its cached vertex-cut certificate
// from an earlier failed max-flow (dropped once a new edge crosses it),
// then through an exact decision: for f = 1 one dominator-tree pass decides
// every pending node at once (idom(j) == self ⟺ two disjoint paths,
// graph/dominators.hpp), otherwise a max-flow on one flow network prepared
// per update (graph::DisjointPathEngine) decides it and caches its cut on
// failure. DESIGN.md §4.11 says why these and only these are cached.
// DiscoveryStats counts the evaluations actually run and what a
// recompute-everything baseline would have run; bench_scale_discovery (E11)
// reports the ratio.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/node_set.hpp"
#include "cup/messages.hpp"
#include "graph/digraph.hpp"
#include "graph/disjoint_paths.hpp"
#include "sim/host.hpp"

namespace scup::cup {

/// Admission-work counters for one SinkDiscovery instance (E11).
struct DiscoveryStats {
  /// Max-flow disjoint-path evaluations actually run.
  std::uint64_t flow_evals = 0;
  /// Evaluations the pre-incremental algorithm would have run: one per
  /// reachable, not-yet-admitted node per dirty update. Directly comparable
  /// with flow_evals because every verdict of both algorithms is exact, so
  /// they admit identical sets.
  std::uint64_t flow_evals_baseline = 0;
  /// Evaluations skipped by Menger's bound (fewer than f+1 active
  /// in-neighbours means f+1 disjoint paths cannot exist).
  std::uint64_t degree_prunes = 0;
  /// Evaluations skipped because the vertex-cut certificate of an earlier
  /// failed max-flow still separates the node (no new edge crossed it).
  std::uint64_t cut_skips = 0;
  /// Dominator-tree passes run for f = 1 batch admission. One pass decides
  /// every pending node at once (idom(j) == self ⟺ two disjoint paths for
  /// non-adjacent j), so it replaces up to |reachable| max-flow runs.
  std::uint64_t domtree_passes = 0;
  std::uint64_t updates = 0;        // update() invocations
  std::uint64_t dirty_updates = 0;  // updates with new certified edges
};

/// Timer id used by the discovery retransmission path (see
/// DiscoveryConfig::requery_interval).
inline constexpr int kDiscoveryRequeryTimerId = 300;

struct DiscoveryConfig {
  /// When > 0, re-send DISCOVER to queried-but-silent nodes (and re-publish
  /// the last KNOWN set) every `requery_interval` ticks until finished.
  /// The paper's reliable channels never need this; it exists for network
  /// models that drop messages before GST (NetworkConfig::pre_gst_drop),
  /// where a single lost query would otherwise stall discovery forever.
  /// Off by default: no timer, no extra messages, existing runs unchanged.
  SimTime requery_interval = 0;
};

class SinkDiscovery {
 public:
  /// `pd` is the output of this process's participant detector.
  SinkDiscovery(sim::ProtocolHost& host, NodeSet pd,
                DiscoveryConfig config = {});

  /// Begins knowledge expansion (queries PD members).
  void start();

  /// Feeds a received message; returns true if it was a discovery-layer
  /// message (consumed).
  bool handle(ProcessId from, const sim::Message& msg);

  /// Feeds a timer firing; returns true if it was the discovery requery
  /// timer (consumed). Hosts must route on_timer here when a nonzero
  /// requery_interval is configured.
  bool on_timer(int timer_id);

  /// Lets the requery timer lapse for good (no more retransmissions).
  /// Hosts call this once the protocol above no longer needs recovery —
  /// typically when the node has decided; finishing discovery stops it
  /// automatically.
  void stop_requery() { requery_stopped_ = true; }

  /// True once step 3 succeeded (only sink members get here).
  bool finished() const { return finished_; }
  const NodeSet& sink() const { return candidate_; }

  /// True once >= f+1 *candidate members* published KNOWN sets different
  /// from ours — strong evidence of being a non-sink member (informational;
  /// the indirect path provides the actual sink). Non-members' reports are
  /// ignored: the claim under test is that the candidate set is a
  /// self-contained sink, so only its members' views bear on it.
  bool probably_non_sink() const { return probably_non_sink_; }

  const NodeSet& candidate_set() const { return candidate_; }
  const graph::Digraph& certified_graph() const { return cert_graph_; }
  const DiscoveryStats& stats() const { return stats_; }

  /// Invoked exactly once when step 3 succeeds.
  std::function<void()> on_complete;

 private:
  void merge_certificate(ProcessId owner, const NodeSet& pd);
  /// Adds `from` and everything reachable from it to reachable_.
  void extend_reachable(ProcessId from);
  void merge_certificates(const std::vector<PdCertificate>& certs);
  /// Queries newly reachable nodes, re-decides pending admissions after a
  /// batch that added edges, and re-evaluates steps 2-3.
  void update();
  void recheck_admissions();
  void maybe_publish_known();
  void check_match();
  sim::MessagePtr gossip_reply();
  PdCertificate own_cert() const { return {host_.self(), pd_}; }

  /// Shared-payload access with sharing accounting: returns `cache`,
  /// building it with `build()` on a miss. Every call counts — a miss into
  /// kDiscoveryPayloadBuilds, a hit into kDiscoveryPayloadShared — so
  /// shared / (builds + shared) is the broadcast sharing ratio the E11
  /// bench reports. Call once per send.
  template <typename Build>
  const sim::MessagePtr& shared_payload(sim::MessagePtr& cache,
                                        Build&& build) {
    if (!cache) {
      cache = build();
      host_.host_counter_add(sim::ProtoCounter::kDiscoveryPayloadBuilds, 1);
    } else {
      host_.host_counter_add(sim::ProtoCounter::kDiscoveryPayloadShared, 1);
    }
    return cache;
  }

  sim::ProtocolHost& host_;
  NodeSet pd_;
  std::size_t f_;
  DiscoveryConfig config_;

  /// Certificate table: row `owner` is owner's claimed PD, union-merged
  /// (DESIGN.md §4.1); only rows of owners in `cert_owners_` are set.
  /// merge_certificate() rejects owners outside the table, so a validated
  /// owner always indexes in range, and merges in place, so a certificate
  /// that adds nothing allocates nothing.
  std::vector<NodeSet> cert_rows_;
  NodeSet cert_owners_;        // owners with a stored row
  graph::Digraph cert_graph_;  // the certified knowledge graph
  /// Nodes reachable from self in cert_graph_, kept closed under successors
  /// as edges arrive (the graph only grows). Seeded with self by the first
  /// merge: the host binds self() only after constructing this object.
  NodeSet reachable_;
  std::vector<ProcessId> reach_stack_;  // DFS scratch for extend_reachable
  /// Edges added since the last admission recheck as (tail, head) pairs,
  /// for the cut-crossing test against cached negative verdicts.
  std::vector<std::pair<ProcessId, ProcessId>> new_edges_;

  NodeSet admitted_;  // f-reachability is monotone; cache positives
  NodeSet candidate_;
  NodeSet queried_;
  NodeSet responded_;
  std::map<ProcessId, NodeSet> latest_known_;  // sender -> last KNOWN set
  NodeSet last_published_;
  bool published_once_ = false;
  bool finished_ = false;
  bool probably_non_sink_ = false;
  bool requery_stopped_ = false;

  graph::DisjointPathEngine path_engine_;  // scratch reused across updates
  /// Per-node cut certificate from the last failed max-flow (empty
  /// optional: none cached, or admitted). Invalidated only by a new edge
  /// crossing its frontier, so nodes that stay short of f+1 paths stop
  /// costing max-flow runs after their first failure.
  std::vector<std::optional<graph::DisjointPathEngine::VertexCut>> neg_cuts_;
  // ---- shared broadcast payloads: every discovery broadcast constructs
  // ---- (and size-accounts) one immutable message per *state change*, not
  // ---- per destination; sends reuse the cache until the state moves.

  /// Gossip replies carry every stored certificate; the table only changes
  /// when a certificate merge grows it (which resets this), so one
  /// immutable message per certificate state is shared by every reply
  /// instead of re-copying the table per DISCOVER.
  sim::MessagePtr cached_gossip_;
  /// DISCOVER carries own_cert(), which is frozen at construction (pd_
  /// never changes), so one message serves every query and retransmission
  /// for the lifetime of the instance.
  sim::MessagePtr cached_discover_;
  /// KNOWN carries last_published_; rebuilt only when a publication
  /// changes it, shared across the publish fan-out and every timer
  /// republish in between.
  sim::MessagePtr cached_known_;
  DiscoveryStats stats_;
};

}  // namespace scup::cup
