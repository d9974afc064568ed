#include "cup/sink_discovery.hpp"

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
      latest_known_(pd_.universe_size()),
      known_senders_(pd_.universe_size()),
      last_published_(pd_.universe_size()),
      neg_cuts_(pd_.universe_size()),
      cut_holders_(pd_.universe_size()) {}

void SinkDiscovery::start() {
  const PdCertificate own = own_cert();
  merge_certificates({&own, 1});
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
    ++stats_.cert_entries_received;
    merge_certificates({&discover->cert, 1});
    responded_.add(from);
    // Reply with everything we hold (knowledge flows backward along the
    // query; certificates are forwardable because they are signed).
    host_.host_send(from, gossip_reply());
    update();
    return true;
  }
  if (const auto* gossip = sim::message_as<CertGossipMsg>(&msg)) {
    stats_.cert_entries_received += gossip->certs.size();
    merge_certificates(gossip->certs);
    responded_.add(from);
    update();
    return true;
  }
  if (const auto* known = sim::message_as<KnownMsg>(&msg)) {
    if (from < latest_known_.size() &&
        known->known.universe_size() == latest_known_.size()) {
      // scup-lint: bounded(one slot per process in the universe, range-checked above)
      latest_known_[from] = known->known;
      known_senders_.add(from);
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
  // message serves all of them — one construction *and one sizing pass*
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

void SinkDiscovery::merge_certificates(
    std::span<const PdCertificate> certs) {
  const std::size_t universe = cert_rows_.size();
  for (const auto& [owner, pd] : certs) {
    if (owner >= universe || pd.universe_size() != universe) continue;
    // Nothing new: the common case (every gossip reply repeats the whole
    // table), decided here without a call and without allocating.
    if (cert_owners_.contains(owner) && pd.subset_of(cert_rows_[owner])) {
      continue;
    }
    merge_certificate(owner, pd);
  }
}

void SinkDiscovery::merge_certificate(ProcessId owner, const NodeSet& pd) {
  NodeSet& row = cert_rows_[owner];
  if (cert_owners_.contains(owner)) {
    // Union-merge: a Byzantine owner issuing conflicting certificates
    // converges to the union at every correct receiver (deterministic).
    row |= pd;
  } else {
    cert_owners_.add(owner);
    row = pd;
  }
  cached_gossip_.reset();
  if (reachable_.empty()) {
    reachable_.add(host_.self());
    if (f_ == 1) {
      dom_tree_ = graph::DominatorTree(cert_graph_.node_count(), host_.self());
    }
  }
  // The row's new edges land, in id order, at the end of owner's
  // successors; that suffix is what this merge added.
  const std::size_t known = cert_graph_.out_degree(owner);
  cert_graph_.add_edges(owner, row);
  const std::vector<ProcessId>& successors = cert_graph_.successors(owner);
  if (successors.size() == known) return;
  const bool owner_reachable = reachable_.contains(owner);
  for (std::size_t i = known; i < successors.size(); ++i) {
    const ProcessId target = successors[i];
    new_edges_.emplace_back(owner, target);
    if (owner_reachable && !reachable_.contains(target)) {
      extend_reachable(target);
    }
  }
  // The tree takes up every edge owner gained since its last call, one at
  // a time and in order, so one call covers the whole suffix.
  if (f_ == 1) dom_tree_.insert(cert_graph_, owner);
}

void SinkDiscovery::extend_reachable(ProcessId from) {
  // reachable_ was closed under successors before this merge, whose new
  // edges all leave its owner, so the search stops at every node it
  // already holds; the caller extends from each new head in turn.
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
  NodeSet to_query = reachable_ - queried_;
  to_query.remove(self);
  queried_ |= to_query;
  for (ProcessId j : to_query) {
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
  const NodeSet holders = cut_holders_;
  for (ProcessId j : holders) {
    if (!cut_still_separates(*neg_cuts_[j])) {
      neg_cuts_[j].reset();
      cut_holders_.remove(j);
    }
  }
  new_edges_.clear();

  // Menger bound at the source: f+1 disjoint paths leave self through f+1
  // distinct certified out-edges. reachable_ holds every successor of self.
  const std::size_t self_out_degree = cert_graph_.out_degree(self);

  // Candidate set: self, own PD (trusted oracle output), and every node
  // f-reachable in the certified graph (Definition 9). Both the graph and
  // the property are monotone, so admitted nodes stay admitted; every other
  // reachable node is pending and goes through the steps below again, each
  // of which gives an exact verdict.
  NodeSet pending = reachable_ - admitted_;
  pending -= pd_;
  pending.remove(self);
  // The pre-incremental algorithm re-ran the max-flow check for every
  // pending node unconditionally; count what it would have cost (E11's
  // baseline). When the source bound fails, the bound prunes them all.
  const std::size_t pending_count = pending.count();
  stats_.flow_evals_baseline += pending_count;
  if (self_out_degree < f_ + 1) {
    stats_.degree_prunes += pending_count;
    pending.clear();
  }
  bool engine_ready = false;
  bool domtree_consulted = false;
  for (ProcessId j : pending) {
    // Menger bound at the target: f+1 disjoint paths arrive over f+1
    // distinct certified in-edges from active nodes.
    if (cert_graph_.predecessors(j).intersection_count(reachable_) < f_ + 1) {
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
      // is self. The dominator tree, kept up to date edge by edge by
      // merge_certificate, decides every pending node of this update; a
      // certified direct edge self → j (only forged self certificates
      // create one, since honest self edges are exactly pd_) falls
      // through to the exact max-flow path.
      if (!domtree_consulted) {
        ++stats_.domtree_passes;
        domtree_consulted = true;
      }
      if (dom_tree_.idom(j) == self) admitted_.add(j);
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
      cut_holders_.add(j);
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
  // it (ourselves included). Outsider echoes are meaningless: the claim is
  // that the candidate set is a self-contained sink, so only its members'
  // views matter.
  std::size_t matching = 1;  // self
  for (ProcessId sender : known_senders_ & candidate_) {
    if (latest_known_[sender] == candidate_) ++matching;
  }

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
