// Discrete-event simulation of a partially synchronous message-passing
// system (Dwork-Lynch-Stockmeyer style, Section III-A of the paper):
// messages sent before GST suffer arbitrary (bounded only by the
// configuration) delays; messages sent after GST are delivered within
// [min_delay, max_delay]. Channels are reliable and authenticated;
// processing is instantaneous (computation bounds are absorbed into message
// delays, which is standard for protocol simulation).
//
// The link layer is pluggable (sim::NetworkModel): per-link overrides,
// partition schedules and pre-GST loss/duplication live there. The runtime
// adds staged participation — activate(id, t) defers a process's start()
// to simulated time t, with earlier deliveries buffered in its mailbox —
// and a crash(id) fault primitive that silences a process in both
// directions (no sends, no deliveries, no timer fires after the crash).
//
// Execution is one serial loop: a global calendar queue drained one event
// at a time, by time and then in push order.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/counters.hpp"
#include "sim/event_queue.hpp"
#include "sim/message.hpp"
#include "sim/message_pool.hpp"
#include "sim/metrics.hpp"
#include "sim/network_model.hpp"
#include "sim/notary.hpp"
#include "sim/process.hpp"

namespace scup::sim {

class Simulation {
 public:
  /// Runs the default UniformModel over `config` (including its override /
  /// partition / loss feature set).
  Simulation(std::size_t n, NetworkConfig config);
  /// Runs a custom link-layer model. `config` still provides the seed for
  /// the network RNG stream and the notary.
  Simulation(std::size_t n, NetworkConfig config,
             std::unique_ptr<NetworkModel> model);
  ~Simulation();

  std::size_t size() const { return n_; }

  /// Installs the process implementation for slot `id`. Must be called for
  /// every id before start(). Returns a reference for configuration.
  template <typename T, typename... Args>
  T& emplace_process(ProcessId id, Args&&... args) {
    auto proc = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *proc;
    install(id, std::move(proc));
    return ref;
  }
  void install(ProcessId id, std::unique_ptr<Process> process);

  Process& process(ProcessId id);
  const Process& process(ProcessId id) const;

  /// Defers process `id`'s start() to simulated time `t` (staged
  /// participant arrival). Deliveries before the activation wait in the
  /// process's mailbox and are handed over, in arrival order, right after
  /// its deferred start() runs. Must be called before start(); t = 0 means
  /// the process starts with everyone else.
  void activate(ProcessId id, SimTime t);
  bool active(ProcessId id) const { return active_[id] != 0; }

  // Always all-zero: the message pool is gone. Stays only because
  // benchmark/ reads it, and goes with the next change to the benchmark.
  MessagePool::Stats pool_stats() const { return {}; }

  /// Calls start() on every process not scheduled by activate() (in id
  /// order). Must be called once.
  void start();

  /// Current simulated time: the time of the last processed event.
  SimTime now() const { return now_; }

  /// Processes events until `predicate` holds, the event queue empties, or
  /// simulated time would exceed `deadline`. Returns true iff the predicate
  /// held. The predicate is checked after every `stride`-th event (default:
  /// every event); a larger stride trades up to stride-1 extra processed
  /// events for not paying an expensive predicate per event.
  template <typename Pred>
  bool run_until(Pred&& predicate, SimTime deadline, std::size_t stride = 1) {
    if (!started_) throw std::logic_error("run_until before start");
    if (predicate()) return true;
    if (stride == 0) stride = 1;
    std::size_t since_check = 0;
    while (!queue_.empty() && queue_.next_time() <= deadline) {
      step();
      if (++since_check >= stride) {
        since_check = 0;
        if (predicate()) return true;
      }
    }
    return predicate();
  }

  /// Processes all events with time <= deadline (or until the queue runs
  /// dry). Returns the number of events processed.
  std::size_t run_for(SimTime deadline);

  const SimMetrics& metrics() const { return metrics_; }

  const Notary& notary() const { return notary_; }

  /// Crash-stops `id` now: no sends, no deliveries, no timer fires from
  /// this point on. Crashed processes count against the fault threshold
  /// like any other failure.
  void crash(ProcessId id);
  /// Schedules crash(id) at simulated time `t` (>= now). Usable before or
  /// after start().
  void crash_at(ProcessId id, SimTime t);
  bool crashed(ProcessId id) const { return crashed_[id] != 0; }

 private:
  friend class Process;

  /// Seed of process `sender`'s private network-RNG substream under run
  /// seed `seed`.
  static std::uint64_t net_stream_seed(std::uint64_t seed, ProcessId sender) {
    return hash_mix(seed, 0x6e657473ULL /* "nets" */, sender);
  }

  void enqueue_send(ProcessId from, ProcessId to, MessagePtr msg);
  /// Queues one delivery copy whose verdict is already drawn.
  void route_delivery(ProcessId from, ProcessId to, SimTime at,
                      MessagePtr msg);
  void enqueue_timer(ProcessId target, int timer_id, SimTime delay);
  std::uint64_t& timer_generation(ProcessId target, int timer_id);
  const std::uint64_t* find_timer_generation(ProcessId target,
                                             int timer_id) const;
  void counter_add(ProtoCounter counter, std::uint64_t delta);
  void dispatch(Event& event);
  bool step();  // processes one event; false if queue empty

  std::size_t n_;
  std::unique_ptr<NetworkModel> model_;
  SimTime now_ = 0;
  /// One private StreamRng substream per sender, seeded from
  /// net_stream_seed: a sender's verdicts depend only on its own sends.
  std::vector<StreamRng> net_streams_;
  Notary notary_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<std::uint8_t> crashed_;
  std::vector<std::uint8_t> active_;
  std::vector<SimTime> activation_time_;  // 0 = start with everyone else
  std::vector<std::pair<ProcessId, SimTime>> pending_crashes_;
  /// Pre-activation deliveries, in arrival order.
  std::vector<std::vector<std::pair<ProcessId, MessagePtr>>> mailboxes_;
  /// Generation counters for timer re-arming. A process uses a handful of
  /// distinct timer ids, so a flat (id, generation) vector with linear
  /// scan beats the old per-process std::map.
  std::vector<std::vector<std::pair<int, std::uint64_t>>> timer_generations_;
  CalendarQueue queue_;
  SimMetrics metrics_;
  bool started_ = false;
};

}  // namespace scup::sim
