#include "cup/sink_discovery.hpp"

#include "graph/dominators.hpp"

namespace scup::cup {

SinkDiscovery::SinkDiscovery(sim::ProtocolHost& host, NodeSet pd,
                             DiscoveryConfig config)
    : host_(host),
      pd_(std::move(pd)),
      f_(host.fault_threshold()),
      config_(config),
      cert_rows_(pd_.universe_size()),
      cert_owners_(pd_.universe_size()),
      cert_graph_(pd_.universe_size()),
      reachable_(pd_.universe_size()),
      admitted_(pd_.universe_size()),
      candidate_(pd_.universe_size()),
      queried_(pd_.universe_size()),
      responded_(pd_.universe_size()),
      last_published_(pd_.universe_size()),
      neg_cuts_(pd_.universe_size()) {}

void SinkDiscovery::start() {
  merge_certificate(host_.self(), pd_);
  update();
  if (config_.requery_interval > 0) {
    host_.host_set_timer(kDiscoveryRequeryTimerId, config_.requery_interval);
  }
}

bool SinkDiscovery::on_timer(int timer_id) {
  if (timer_id != kDiscoveryRequeryTimerId) return false;
  if (finished_ || requery_stopped_) return true;  // done; let it lapse
  // Retransmit to queried nodes we never heard back from — their DISCOVER
  // (or its reply) may have been lost pre-GST. Receivers are idempotent:
  // a duplicate DISCOVER merges an already-known certificate and re-sends
  // the (shared, cached) gossip reply.
  for (ProcessId j : queried_) {
    if (j == host_.self() || responded_.contains(j)) continue;
    host_.host_send(j, shared_payload(cached_discover_, [this] {
      return sim::make_message<DiscoverMsg>(own_cert());
    }));
  }
  // Re-publish the last KNOWN set: a lost KNOWN would otherwise keep a
  // peer's step-3 match one report short forever (publication is normally
  // change-triggered only).
  if (published_once_) {
    for (ProcessId j : last_published_) {
      if (j == host_.self()) continue;
      host_.host_send(j, shared_payload(cached_known_, [this] {
        return sim::make_message<KnownMsg>(last_published_);
      }));
    }
  }
  host_.host_set_timer(kDiscoveryRequeryTimerId, config_.requery_interval);
  return true;
}

bool SinkDiscovery::handle(ProcessId from, const sim::Message& msg) {
  if (const auto* discover = sim::message_as<DiscoverMsg>(&msg)) {
    merge_certificate(discover->cert.owner, discover->cert.pd);
    responded_.add(from);
    // Reply with everything we hold (knowledge flows backward along the
    // query; certificates are forwardable because they are signed).
    host_.host_send(from, gossip_reply());
    update();
    return true;
  }
  if (const auto* gossip = sim::message_as<CertGossipMsg>(&msg)) {
    merge_certificates(gossip->certs);
    responded_.add(from);
    update();
    return true;
  }
  if (const auto* known = sim::message_as<KnownMsg>(&msg)) {
    if (known->known.universe_size() == host_.universe()) {
      // scup-lint: bounded(keyed by sender id, at most one entry per process in the universe)
      // scup-sanitize: `from` is the transport-authenticated sender id, not payload
      latest_known_[from] = known->known;
      responded_.add(from);
      update();
    }
    return true;
  }
  return false;
}

sim::MessagePtr SinkDiscovery::gossip_reply() {
  // The reply is immutable and identical for every requester until the next
  // certificate change (merge_certificate resets the cache), so one shared
  // message serves all of them — one construction *and one frame encode*
  // per certificate state; the per-DISCOVER copy used to dominate
  // large-n discovery cost. Owners are listed in ascending order, as the
  // canonical frame requires.
  return shared_payload(cached_gossip_, [this] {
    std::vector<PdCertificate> certs;
    certs.reserve(cert_owners_.count());
    for (ProcessId owner : cert_owners_) {
      certs.push_back({owner, cert_rows_[owner]});
    }
    return sim::make_message<CertGossipMsg>(std::move(certs));
  });
}

void SinkDiscovery::merge_certificate(ProcessId owner, const NodeSet& pd) {
  if (owner == kInvalidProcess || owner >= cert_rows_.size() ||
      pd.universe_size() != host_.universe()) {
    return;  // malformed; ignore
  }
  NodeSet& row = cert_rows_[owner];
  if (!cert_owners_.contains(owner)) {
    cert_owners_.add(owner);
    row = pd;
  } else if (pd.subset_of(row)) {
    return;  // nothing new: the common case, and allocation-free
  } else {
    // Union-merge: a Byzantine owner issuing conflicting certificates
    // converges to the union at every correct receiver (deterministic).
    row |= pd;
  }
  cached_gossip_.reset();
  if (reachable_.empty()) reachable_.add(host_.self());
  const bool owner_reachable = reachable_.contains(owner);
  for (ProcessId target : row) {
    if (!cert_graph_.has_edge(owner, target)) {
      cert_graph_.add_edge(owner, target);
      new_edges_.emplace_back(owner, target);
      if (owner_reachable && !reachable_.contains(target)) {
        extend_reachable(target);
      }
    }
  }
}

void SinkDiscovery::extend_reachable(ProcessId from) {
  // reachable_ is closed under successors in the graph before this edge,
  // so the search stops at every node it already holds.
  reachable_.add(from);
  reach_stack_.assign(1, from);
  while (!reach_stack_.empty()) {
    const ProcessId u = reach_stack_.back();
    reach_stack_.pop_back();
    for (ProcessId v : cert_graph_.successors(u)) {
      if (!reachable_.contains(v)) {
        reachable_.add(v);
        reach_stack_.push_back(v);
      }
    }
  }
}

void SinkDiscovery::merge_certificates(
    const std::vector<PdCertificate>& certs) {
  for (const auto& [owner, pd] : certs) merge_certificate(owner, pd);
}

void SinkDiscovery::update() {
  if (finished_) return;
  ++stats_.updates;
  if (!new_edges_.empty() || candidate_.empty()) {
    recheck_admissions();
  }
  maybe_publish_known();
  check_match();
}

void SinkDiscovery::recheck_admissions() {
  const ProcessId self = host_.self();
  ++stats_.dirty_updates;

  // Plain reachability bounds both the query set and the f-reachability
  // candidates (f-reachable implies reachable); merge_certificate keeps the
  // set. Before the first merge it is empty, which changes nothing below:
  // without edges self has no successor, and self is skipped anyway.

  // Query everything reachable — their certificates may be needed to
  // certify disjoint paths — even nodes not (yet) admitted. One immutable
  // query message serves every target, across every update *and* every
  // retransmission (own_cert() is frozen at construction).
  for (ProcessId j : reachable_) {
    if (j == self || queried_.contains(j)) continue;
    queried_.add(j);
    host_.host_send(j, shared_payload(cached_discover_, [this] {
      return sim::make_message<DiscoverMsg>(own_cert());
    }));
  }

  // A cached failure certificate stays conclusive unless some new edge
  // jumps from its source side past its separator (then a path avoiding
  // the old cut may exist and the node must be re-evaluated). Only an edge
  // added after the cut was extracted can: the max-flow ran on everything
  // reachable from self, which no edge leaves, and inside it every edge out
  // of the source side ends in the source side or the cut, or is the direct
  // edge from self to the target (DisjointPathEngine::extract_cut).
  // Every added edge passes through merge_certificate into this batch.
  const auto cut_still_separates =
      [this](const graph::DisjointPathEngine::VertexCut& cut) {
        for (const auto& [tail, head] : new_edges_) {
          if (cut.source_side.contains(tail) &&
              !cut.source_side.contains(head) && !cut.cut.contains(head)) {
            return false;
          }
        }
        return true;
      };
  for (auto& cut : neg_cuts_) {
    if (cut && !cut_still_separates(*cut)) cut.reset();
  }
  new_edges_.clear();

  // Menger bound at the source: f+1 disjoint paths leave self through f+1
  // distinct certified out-edges.
  std::size_t self_out_degree = 0;
  for (ProcessId x : cert_graph_.successors(self)) {
    if (reachable_.contains(x)) ++self_out_degree;
  }
  const bool source_can_admit = self_out_degree >= f_ + 1;

  // Candidate set: self, own PD (trusted oracle output), and every node
  // f-reachable in the certified graph (Definition 9). Both the graph and
  // the property are monotone, so admitted nodes stay admitted; every other
  // reachable node goes through the steps below again, each of which gives
  // an exact verdict.
  bool engine_ready = false;
  bool domtree_ready = false;
  std::vector<ProcessId> idom;
  for (ProcessId j : reachable_) {
    if (admitted_.contains(j) || j == self || pd_.contains(j)) continue;
    // The pre-incremental algorithm re-ran the max-flow check here
    // unconditionally; count what it would have cost (E11's baseline).
    ++stats_.flow_evals_baseline;
    // Menger bound at the target: f+1 disjoint paths arrive over f+1
    // distinct certified in-edges from active nodes.
    std::size_t in_degree = 0;
    if (source_can_admit) {
      for (ProcessId p : cert_graph_.predecessors(j)) {
        if (reachable_.contains(p) && ++in_degree > f_) break;
      }
    }
    if (in_degree < f_ + 1) {
      ++stats_.degree_prunes;
      continue;
    }
    if (neg_cuts_[j]) {  // surviving certificate: verdict still negative
      ++stats_.cut_skips;
      continue;
    }
    if (f_ == 0) {
      // One path suffices and j is reachable by construction of the loop.
      admitted_.add(j);
      continue;
    }
    if (f_ == 1 && !cert_graph_.has_edge(self, j)) {
      // Menger for k = 2, single source: a non-adjacent j has two
      // internally-disjoint paths from self iff its only proper dominator
      // is self. One dominator pass decides every pending node this
      // update; a certified direct edge self → j (only forged self
      // certificates create one, since honest self edges are exactly
      // pd_) falls through to the exact max-flow path.
      if (!domtree_ready) {
        idom = graph::immediate_dominators(cert_graph_, self, reachable_);
        ++stats_.domtree_passes;
        domtree_ready = true;
      }
      if (idom[j] == self) admitted_.add(j);
      continue;
    }
    if (!engine_ready) {
      path_engine_.prepare(cert_graph_, reachable_);
      engine_ready = true;
    }
    ++stats_.flow_evals;
    if (path_engine_.has_k_paths(self, j, f_ + 1)) {
      admitted_.add(j);
    } else {
      neg_cuts_[j] = path_engine_.extract_cut(self, j);
    }
  }
  candidate_ = admitted_ | pd_;
  candidate_.add(self);
}

void SinkDiscovery::maybe_publish_known() {
  // Step 2 stability: at most f candidates unresponsive.
  NodeSet pending = candidate_;
  pending.remove(host_.self());
  pending -= responded_;
  if (pending.count() > f_) return;

  if (published_once_ && last_published_ == candidate_) return;
  published_once_ = true;
  last_published_ = candidate_;
  cached_known_.reset();  // the payload tracks last_published_
  for (ProcessId j : candidate_) {
    if (j == host_.self()) continue;
    host_.host_send(j, shared_payload(cached_known_, [this] {
      return sim::make_message<KnownMsg>(last_published_);
    }));
  }
}

void SinkDiscovery::check_match() {
  if (finished_ || !published_once_) return;

  // Step 3: count members of our candidate set whose latest KNOWN equals
  // it (ourselves included) and members that disagree. Outsider echoes
  // are meaningless either way: the claim is that the candidate set is a
  // self-contained sink, so only its members' views matter — in particular
  // f+1 chatty non-members must not be able to raise probably_non_sink_.
  std::size_t matching = 1;  // self
  std::size_t different = 0;
  for (const auto& [sender, known] : latest_known_) {
    if (!candidate_.contains(sender)) continue;
    if (known == candidate_) {
      ++matching;
    } else {
      ++different;
    }
  }
  if (different >= f_ + 1) probably_non_sink_ = true;

  // The sink is guaranteed to hold >= 2f+1 correct members (Theorem 1's
  // precondition), so smaller candidates can never be the sink; requiring
  // it also rules out degenerate matches on tiny intermediate candidates.
  if (candidate_.count() >= 2 * f_ + 1 &&
      matching >= candidate_.count() - f_) {
    finished_ = true;
    if (on_complete) on_complete();
  }
}

}  // namespace scup::cup
