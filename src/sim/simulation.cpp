#include "sim/simulation.hpp"

#include <stdexcept>

namespace scup::sim {

std::map<std::string, std::size_t> SimMetrics::messages_by_type() const {
  std::map<std::string, std::size_t> result;
  for (std::uint32_t id = 0; id < messages_by_type_id.size(); ++id) {
    const std::size_t count = messages_by_type_id[id];
    if (count != 0) result[MessageTypeRegistry::name_of(id)] = count;
  }
  return result;
}

const char* proto_counter_name(ProtoCounter c) {
  switch (c) {
    case ProtoCounter::kQuorumClosureRuns: return "scp.closure_runs";
    case ProtoCounter::kQuorumClosureCacheHits: return "scp.closure_cache_hits";
    case ProtoCounter::kQsetEvals: return "scp.qset_evals";
    case ProtoCounter::kQsetEvalsBaseline: return "scp.qset_evals_baseline";
    case ProtoCounter::kSupportUpdates: return "scp.support_updates";
    case ProtoCounter::kSupportRebuilds: return "scp.support_rebuilds";
    case ProtoCounter::kSlotWraps: return "scp.slot_wraps";
    case ProtoCounter::kSlotWrapsShared: return "scp.slot_wraps_shared";
    case ProtoCounter::kDiscoveryPayloadBuilds: return "cup.payload_builds";
    case ProtoCounter::kDiscoveryPayloadShared: return "cup.payload_shared";
    case ProtoCounter::kWireEncodes: return "sim.wire_encodes";
    case ProtoCounter::kWireCachedSends: return "sim.wire_cached_sends";
    case ProtoCounter::kCount: break;
  }
  return "scp.unknown";
}

std::map<std::string, std::uint64_t> SimMetrics::protocol_counters_by_name()
    const {
  std::map<std::string, std::uint64_t> result;
  for (std::size_t i = 0; i < kProtoCounterCount; ++i) {
    result[proto_counter_name(static_cast<ProtoCounter>(i))] =
        protocol_counters[i];
  }
  return result;
}

Simulation::Simulation(std::size_t n, NetworkConfig config)
    : Simulation(n, config, std::make_unique<UniformModel>(config)) {}

Simulation::Simulation(std::size_t n, NetworkConfig config,
                       std::unique_ptr<NetworkModel> model)
    : n_(n),
      model_(std::move(model)),
      notary_(n, config.seed),
      processes_(n),
      crashed_(n, 0),
      active_(n, 0),
      activation_time_(n, 0),
      mailboxes_(n),
      timer_generations_(n) {
  if (!model_) throw std::invalid_argument("Simulation: null NetworkModel");
  // One substream per sender, seeded independently of every other stream
  // so send interleavings across senders cannot perturb any sender's draw
  // sequence.
  net_streams_.reserve(n);
  for (ProcessId i = 0; i < n; ++i) {
    net_streams_.emplace_back(net_stream_seed(config.seed, i));
  }
}

Simulation::~Simulation() = default;

void Simulation::install(ProcessId id, std::unique_ptr<Process> process) {
  if (id >= n_) throw std::out_of_range("Simulation::install: bad id");
  if (started_) throw std::logic_error("Simulation::install after start");
  process->sim_ = this;
  process->id_ = id;
  processes_[id] = std::move(process);
}

Process& Simulation::process(ProcessId id) {
  if (id >= n_ || !processes_[id]) {
    throw std::out_of_range("Simulation::process: bad id");
  }
  return *processes_[id];
}

const Process& Simulation::process(ProcessId id) const {
  if (id >= n_ || !processes_[id]) {
    throw std::out_of_range("Simulation::process: bad id");
  }
  return *processes_[id];
}

void Simulation::activate(ProcessId id, SimTime t) {
  if (id >= n_) throw std::out_of_range("activate: bad id");
  if (started_) throw std::logic_error("activate after start");
  if (t < 0) throw std::invalid_argument("activate: negative time");
  activation_time_[id] = t;
}

void Simulation::start() {
  if (started_) throw std::logic_error("Simulation::start called twice");
  for (ProcessId id = 0; id < n_; ++id) {
    if (!processes_[id]) {
      throw std::logic_error("Simulation::start: process " +
                             std::to_string(id) + " not installed");
    }
  }
  started_ = true;
  for (const auto& [id, t] : pending_crashes_) {
    if (t == 0) {
      // Crashed at genesis: the process never runs — not even start().
      crashed_[id] = 1;
      continue;
    }
    Event e;
    e.kind = EventKind::kCrash;
    e.target = id;
    queue_.push(t, std::move(e));
  }
  pending_crashes_.clear();
  for (ProcessId id = 0; id < n_; ++id) {
    if (activation_time_[id] == 0) continue;
    Event e;
    e.kind = EventKind::kActivate;
    e.target = id;
    queue_.push(activation_time_[id], std::move(e));
  }
  for (ProcessId id = 0; id < n_; ++id) {
    if (activation_time_[id] != 0 || crashed_[id]) continue;
    active_[id] = 1;
    processes_[id]->start();
  }
}

void Simulation::enqueue_send(ProcessId from, ProcessId to, MessagePtr msg) {
  if (to >= n_) throw std::out_of_range("send: bad destination");
  if (from >= n_) throw std::out_of_range("send: bad sender");
  if (!msg) throw std::invalid_argument("send: null message");
  if (crashed_[from]) return;  // a crashed process sends nothing
  metrics_.messages_sent += 1;
  // Wire-once accounting: a message is charged its exact frame size,
  // counted once per message object and read from the cache on every
  // further send. The encode/cached split is deterministic: it depends only
  // on which sends a message object fans out to.
  const Message::SendSize sized = msg->send_size();
  metrics_.bytes_sent += sized.bytes;
  if (sized.encoded_now) {
    metrics_.protocol_counters[static_cast<std::size_t>(
        ProtoCounter::kWireEncodes)] += 1;
  } else {
    metrics_.protocol_counters[static_cast<std::size_t>(
        ProtoCounter::kWireCachedSends)] += 1;
  }
  const std::uint32_t type = msg->metrics_type_id();
  if (type >= metrics_.messages_by_type_id.size()) {
    metrics_.messages_by_type_id.resize(type + 1, 0);
  }
  metrics_.messages_by_type_id[type] += 1;

  // The verdict is drawn at send time from the sender's private substream,
  // so it depends only on the sender's own send sequence.
  const NetworkModel::Verdict verdict =
      model_->on_send(from, to, now_, net_streams_[from]);
  if (verdict.dropped) {
    metrics_.messages_dropped += 1;
    return;
  }
  if (verdict.deliver_at < now_ ||
      (verdict.duplicated && verdict.duplicate_at < now_)) {
    throw std::logic_error("NetworkModel: delivery scheduled in the past");
  }
  // The original is routed before the duplicate, so it is delivered first
  // when both copies sample the same delay.
  MessagePtr dup_msg = verdict.duplicated ? msg : nullptr;
  route_delivery(from, to, verdict.deliver_at, std::move(msg));
  if (verdict.duplicated) {
    metrics_.messages_duplicated += 1;
    // Both copies share the immutable message.
    route_delivery(from, to, verdict.duplicate_at, std::move(dup_msg));
  }
}

void Simulation::route_delivery(ProcessId from, ProcessId to, SimTime at,
                                MessagePtr msg) {
  Event e;
  e.kind = EventKind::kDeliver;
  e.target = to;
  e.from = from;
  e.msg = std::move(msg);
  queue_.push(at, std::move(e));
}

std::uint64_t& Simulation::timer_generation(ProcessId target, int timer_id) {
  auto& table = timer_generations_[target];
  for (auto& [id, generation] : table) {
    if (id == timer_id) return generation;
  }
  table.emplace_back(timer_id, 0);
  return table.back().second;
}

const std::uint64_t* Simulation::find_timer_generation(ProcessId target,
                                                       int timer_id) const {
  for (const auto& [id, generation] : timer_generations_[target]) {
    if (id == timer_id) return &generation;
  }
  return nullptr;
}

void Simulation::enqueue_timer(ProcessId target, int timer_id, SimTime delay) {
  if (delay < 0) throw std::invalid_argument("set_timer: negative delay");
  const std::uint64_t generation = ++timer_generation(target, timer_id);
  Event e;
  e.kind = EventKind::kTimer;
  e.target = target;
  e.timer_id = timer_id;
  e.timer_generation = generation;
  queue_.push(now_ + delay, std::move(e));
}

void Simulation::counter_add(ProtoCounter counter, std::uint64_t delta) {
  metrics_.protocol_counters[static_cast<std::size_t>(counter)] += delta;
}

void Simulation::crash(ProcessId id) {
  if (id >= n_) throw std::out_of_range("crash: bad id");
  crashed_[id] = 1;
}

void Simulation::crash_at(ProcessId id, SimTime t) {
  if (id >= n_) throw std::out_of_range("crash_at: bad id");
  if (t < now_) throw std::invalid_argument("crash_at: time in the past");
  if (!started_) {
    pending_crashes_.emplace_back(id, t);
    return;
  }
  Event e;
  e.kind = EventKind::kCrash;
  e.target = id;
  queue_.push(t, std::move(e));
}

void Simulation::dispatch(Event& event) {
  if (crashed_[event.target]) return;  // crashed: nothing fires, ever
  Process& p = *processes_[event.target];
  switch (event.kind) {
    case EventKind::kDeliver:
      if (!active_[event.target]) {
        // Not yet activated: the message waits in the mailbox and is
        // handed over right after the deferred start().
        mailboxes_[event.target].emplace_back(event.from,
                                              std::move(event.msg));
        return;
      }
      p.on_message(event.from, event.msg);
      return;
    case EventKind::kTimer: {
      // Drop if re-armed since scheduling.
      const std::uint64_t* generation =
          find_timer_generation(event.target, event.timer_id);
      if (generation == nullptr || *generation != event.timer_generation) {
        return;
      }
      metrics_.timer_fires += 1;
      p.on_timer(event.timer_id);
      return;
    }
    case EventKind::kActivate: {
      active_[event.target] = 1;
      p.start();
      auto mailbox = std::move(mailboxes_[event.target]);
      mailboxes_[event.target].clear();
      for (auto& [from, msg] : mailbox) {
        if (crashed_[event.target]) break;
        p.on_message(from, msg);
      }
      return;
    }
    case EventKind::kCrash:
      crashed_[event.target] = 1;
      return;
  }
}

bool Simulation::step() {
  if (queue_.empty()) return false;
  Event event = queue_.pop();
  now_ = queue_.cursor();
  metrics_.events_processed += 1;
  dispatch(event);
  return true;
}

std::size_t Simulation::run_for(SimTime deadline) {
  if (!started_) throw std::logic_error("run_for before start");
  std::size_t processed = 0;
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    step();
    ++processed;
  }
  return processed;
}

// ---- Process member functions that need the Simulation definition ----

void Process::send(ProcessId to, MessagePtr msg) {
  sim_->enqueue_send(id_, to, std::move(msg));
}

void Process::set_timer(int timer_id, SimTime delay) {
  sim_->enqueue_timer(id_, timer_id, delay);
}

SimTime Process::now() const { return sim_->now(); }

std::size_t Process::universe_size() const { return sim_->size(); }

std::uint64_t Process::sign(std::uint64_t statement) const {
  return sim_->notary().sign(id_, statement);
}

bool Process::verify(ProcessId signer, std::uint64_t statement,
                     std::uint64_t token) const {
  return sim_->notary().verify(signer, statement, token);
}

void Process::counter_add(ProtoCounter counter, std::uint64_t delta) {
  sim_->counter_add(counter, delta);
}

}  // namespace scup::sim
