// Serial-loop identity suite. The simulator is one event loop that drains a
// calendar queue in (time, seq) order; these tests pin what that loop
// guarantees on the workloads that used to compare a windowed multi-shard
// engine against it, and the suite and test names are the ones those
// comparisons carried:
//
//  - ShardedSimulationTest: set-up freezes at start(); delay bounds are
//    validated but a zero latency floor is legal; driving the loop in
//    windows (successive run_for deadlines) or on worker threads never
//    changes a result; short timers fire exactly on time; same-tick
//    deliveries arrive one on_message each in (time, seq) order; scheduled
//    crashes silence a process from their tick on.
//  - ShardedScenarioTest / LookaheadIdentityTest: scenario reports do not
//    depend on how many ScenarioMatrix workers run the cells, and run_for
//    windows as narrow as the global latency floor or as wide as the base
//    floor reproduce a full drain under heterogeneous links, partitions,
//    loss and duplication.
//  - LookaheadWindowTest: the per-pair latency floors (the lookahead a
//    conservative parallel engine would have to derive) hold for every
//    verdict the default model hands the loop.
//  - DrawPlanTest: each send's verdict comes from the sender's own
//    StreamRng substream, draw for draw as UniformModel documents, so a
//    model that draws off-plan changes that sender's verdicts only.
#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/ledger_node.hpp"
#include "core/scenario_matrix.hpp"
#include "graph/generators.hpp"

namespace scup::sim {
namespace {

constexpr SimTime kHorizon = 100'000;

NetworkConfig gossip_net(SimTime min_delay, SimTime max_delay,
                         std::uint64_t seed) {
  NetworkConfig net;
  net.gst = 0;
  net.min_delay = min_delay;
  net.max_delay = max_delay;
  net.seed = seed;
  return net;
}

struct GossipMsg final : Message {
  GossipMsg(int t, std::uint64_t g) : ttl(t), tag(g) {}
  int ttl;
  std::uint64_t tag;
  std::string type_name() const override { return "test.gossip"; }
  std::size_t byte_size() const override { return 24; }
};

/// Logs every receipt and timer fire, and checks each fire against the
/// deadline of the timer's latest arming (a re-arm supersedes the old one).
class TracedNode : public Process {
 public:
  std::vector<std::uint64_t> log_;
  SimTime last_activity_ = -1;
  bool timers_on_time_ = true;
  std::size_t short_timer_fires_ = 0;
  /// Timer delays below this count as short (set to the link floor).
  SimTime short_delay_ = 0;

 protected:
  void arm(int timer_id, SimTime delay) {
    deadline_[timer_id] = now() + delay;
    delay_[timer_id] = delay;
    set_timer(timer_id, delay);
  }
  void note_receipt(ProcessId from, const GossipMsg& g) {
    last_activity_ = now();
    log_.push_back(hash_mix(hash_mix(from, g.tag), now(),
                            static_cast<std::uint64_t>(g.ttl)));
  }
  void note_fire(int timer_id, std::uint64_t salt) {
    last_activity_ = now();
    if (now() != deadline_[timer_id]) timers_on_time_ = false;
    if (delay_[timer_id] < short_delay_) ++short_timer_fires_;
    log_.push_back(
        hash_mix(salt, static_cast<std::uint64_t>(timer_id), now()));
  }

 private:
  std::map<int, SimTime> deadline_;
  std::map<int, SimTime> delay_;
};

/// Fans gossip across the ring, signing every receipt, re-arming short
/// timers and spawning follow-up sends.
class GossipNode : public TracedNode {
 public:
  GossipNode(std::size_t n, int ttl) : n_(n), ttl0_(ttl) {}

  void start() override {
    sign(0x5eed0000 + id());
    send((id() + 1) % n_, make_message<GossipMsg>(ttl0_, id() * 7 + 1));
    send((id() + 5) % n_, make_message<GossipMsg>(ttl0_ - 1, id() * 13 + 2));
    arm(1, 1 + id() % 3);
  }

  void on_message(ProcessId from, const MessagePtr& msg) override {
    const auto& g = dynamic_cast<const GossipMsg&>(*msg);
    note_receipt(from, g);
    sign(g.tag * 31 + static_cast<std::uint64_t>(g.ttl));
    if (g.ttl > 0) {
      send((id() + g.tag) % n_, make_message<GossipMsg>(g.ttl - 1, g.tag + 1));
      if (g.ttl % 2 == 1) arm(2, static_cast<SimTime>(g.tag % 4));
    }
  }

  void on_timer(int timer_id) override {
    note_fire(timer_id, 0x717e5);
    if (timer_id == 1 && ++reps_ < 4) arm(1, 2);
  }

 private:
  std::size_t n_;
  int ttl0_;
  int reps_ = 0;
};

/// Workload tuned for heterogeneous topologies: most traffic runs on the
/// (id -> id+2) lanes the fast link overrides of het_net cover, while the
/// (id -> id+1) and tag-directed sends take slow links.
class HetNode : public TracedNode {
 public:
  HetNode(std::size_t n, int ttl) : n_(n), ttl0_(ttl) {}

  void start() override {
    sign(0xbea70000 + id());
    send((id() + 1) % n_, make_message<GossipMsg>(ttl0_, id() * 11 + 1));
    send((id() + 2) % n_, make_message<GossipMsg>(ttl0_, id() * 17 + 2));
    arm(1, 1 + id() % 4);
  }

  void on_message(ProcessId from, const MessagePtr& msg) override {
    const auto& m = dynamic_cast<const GossipMsg&>(*msg);
    note_receipt(from, m);
    sign(m.tag * 29 + static_cast<std::uint64_t>(m.ttl));
    if (m.ttl > 0) {
      send((id() + 2) % n_, make_message<GossipMsg>(m.ttl - 1, m.tag + 3));
      if (m.tag % 3 == 0) {
        send((id() + m.tag) % n_,
             make_message<GossipMsg>(m.ttl - 1, m.tag + 1));
      }
      if (m.ttl % 2 == 0) arm(2, static_cast<SimTime>(m.tag % 3));
    }
  }

  void on_timer(int timer_id) override {
    note_fire(timer_id, 0x7133);
    if (timer_id == 1 && ++reps_ < 3) arm(1, 3);
  }

 private:
  std::size_t n_;
  int ttl0_;
  int reps_ = 0;
};

struct StampMsg final : Message {
  explicit StampMsg(SimTime t) : sent_at(t) {}
  SimTime sent_at;
  std::string type_name() const override { return "test.stamp"; }
  std::size_t byte_size() const override { return 8; }
};

/// Sends one stamped message to every peer each tick for `rounds` ticks
/// (a schedule that does not depend on what it receives) and records
/// every receipt's latency.
class StampNode : public Process {
 public:
  StampNode(std::size_t n, int rounds) : n_(n), rounds_(rounds) {}
  void start() override { on_timer(0); }
  void on_timer(int) override {
    for (ProcessId p = 0; p < n_; ++p) {
      if (p != id()) send(p, make_message<StampMsg>(now()));
    }
    if (++sent_ < rounds_) set_timer(0, 1);
  }
  void on_message(ProcessId, const MessagePtr& msg) override {
    latencies_.push_back(now() - dynamic_cast<const StampMsg&>(*msg).sent_at);
  }
  std::vector<SimTime> latencies_;

 private:
  std::size_t n_;
  int rounds_;
  int sent_ = 0;
};

/// Drives `sim` to `horizon` in run_for windows `width` ticks wide (0: one
/// run_for to the horizon) and returns how many windows did work.
std::size_t drive(Simulation& sim, SimTime width, SimTime horizon) {
  std::size_t windows = 0;
  if (width > 0) {
    for (SimTime t = width; t < horizon; t += width) {
      if (sim.run_for(t) > 0) ++windows;
    }
  }
  if (sim.run_for(horizon) > 0) ++windows;
  return windows;
}

struct LoopRun {
  SimMetrics metrics;
  std::uint64_t fingerprint = 0;
  std::vector<std::vector<std::uint64_t>> logs;
  SimTime end = 0;
  /// run_for calls that processed at least one event.
  std::size_t windows = 0;
  bool timers_on_time = true;
  std::size_t short_timer_fires = 0;
  std::vector<SimTime> last_activity;  ///< per process; -1 if none
  std::vector<bool> crashed;
};

using Crashes = std::vector<std::pair<ProcessId, SimTime>>;

template <typename Node>
LoopRun run_nodes(std::size_t n, const NetworkConfig& net, SimTime width,
                  SimTime horizon, const Crashes& crashes = {}) {
  Simulation sim(n, net);
  std::vector<Node*> nodes;
  for (ProcessId i = 0; i < n; ++i) {
    nodes.push_back(&sim.emplace_process<Node>(i, n, 6));
    nodes.back()->short_delay_ = net.min_delay;
  }
  for (const auto& [id, t] : crashes) sim.crash_at(id, t);
  sim.start();
  LoopRun out;
  out.windows = drive(sim, width, horizon);
  out.metrics = sim.metrics();
  out.fingerprint = sim.notary().fingerprint();
  for (ProcessId i = 0; i < n; ++i) {
    out.logs.push_back(nodes[i]->log_);
    out.timers_on_time = out.timers_on_time && nodes[i]->timers_on_time_;
    out.short_timer_fires += nodes[i]->short_timer_fires_;
    out.last_activity.push_back(nodes[i]->last_activity_);
    out.crashed.push_back(sim.crashed(i));
  }
  out.end = sim.now();
  return out;
}

constexpr std::size_t kGossipN = 24;

LoopRun run_gossip(const NetworkConfig& net, SimTime width = 0,
                   const Crashes& crashes = {}) {
  return run_nodes<GossipNode>(kGossipN, net, width, kHorizon, crashes);
}

void expect_same_run(const LoopRun& a, const LoopRun& b,
                     const std::string& what) {
  EXPECT_EQ(a.metrics, b.metrics) << what;
  EXPECT_EQ(a.fingerprint, b.fingerprint) << what;
  EXPECT_EQ(a.logs, b.logs) << what;
  EXPECT_EQ(a.end, b.end) << what;
}

TEST(ShardedSimulationTest, SetShardsAfterStartThrows) {
  // Run set-up freezes at start(): installing, activating or starting
  // again afterwards throws, and nothing runs before it. crash_at is a
  // run-time fault and stays usable, but never into the past.
  Simulation sim(2, gossip_net(1, 5, 1));
  sim.emplace_process<GossipNode>(0, 2, 1);
  sim.emplace_process<GossipNode>(1, 2, 1);
  EXPECT_THROW(sim.run_for(10), std::logic_error);
  sim.start();
  EXPECT_THROW(sim.start(), std::logic_error);
  EXPECT_THROW(sim.activate(1, 5), std::logic_error);
  EXPECT_THROW(sim.emplace_process<GossipNode>(1, 2, 1), std::logic_error);
  sim.run_for(20);
  ASSERT_GT(sim.now(), 0);
  EXPECT_THROW(sim.crash_at(0, sim.now() - 1), std::invalid_argument);
  EXPECT_NO_THROW(sim.crash_at(0, sim.now()));
}

TEST(ShardedSimulationTest, RejectsModelsWithoutMinimumLatency) {
  // The default model rejects delay bounds with no consistent floor — a
  // negative minimum, or a minimum above either maximum — but a zero floor
  // is legal: the serial loop needs no latency promise, and a zero-delay
  // message is delivered in the tick it was sent.
  EXPECT_THROW(Simulation(2, gossip_net(-1, 5, 1)), std::invalid_argument);
  EXPECT_THROW(Simulation(2, gossip_net(6, 5, 1)), std::invalid_argument);
  NetworkConfig slow_pre_gst = gossip_net(6, 9, 1);
  slow_pre_gst.pre_gst_max_delay = 5;
  EXPECT_THROW(Simulation(2, slow_pre_gst), std::invalid_argument);
  NetworkConfig bad_link = gossip_net(1, 5, 1);
  bad_link.link_overrides.push_back({0, 1, -1, 3});
  EXPECT_THROW(Simulation(2, bad_link), std::invalid_argument);

  Simulation sim(3, gossip_net(0, 2, 4));
  std::vector<StampNode*> nodes;
  for (ProcessId i = 0; i < 3; ++i) {
    nodes.push_back(&sim.emplace_process<StampNode>(i, 3, 20));
  }
  sim.start();
  sim.run_for(kHorizon);
  std::size_t received = 0;
  std::size_t same_tick = 0;
  for (const StampNode* node : nodes) {
    for (SimTime latency : node->latencies_) {
      EXPECT_GE(latency, 0);
      EXPECT_LE(latency, 2);
      ++received;
      if (latency == 0) ++same_tick;
    }
  }
  EXPECT_EQ(received, sim.metrics().messages_sent);
  EXPECT_GT(same_tick, 0u);
}

TEST(ShardedSimulationTest, WindowedMatchesLegacyOnFullDrain) {
  // One-tick windows (the latency floor) drain the same events in the
  // same order as a single run_for to the horizon.
  const NetworkConfig net = gossip_net(1, 7, 42);
  const LoopRun drain = run_gossip(net);
  const LoopRun windowed = run_gossip(net, 1);
  expect_same_run(drain, windowed, "1-tick windows vs full drain");
  EXPECT_EQ(drain.windows, 1u);
  EXPECT_GT(windowed.windows, 1u);
  EXPECT_NE(drain.fingerprint, 0u);
}

TEST(ShardedSimulationTest, ShardCountInvarianceAcrossSeeds) {
  // Independent simulations sharded over worker threads (the
  // ScenarioMatrix pool) match the inline serial run for every worker
  // count, whatever the window width each cell is driven with.
  const std::vector<std::uint64_t> seeds = {3, 19};
  const std::vector<SimTime> widths = {0, 2, 3, 8};
  std::vector<LoopRun> base;
  for (std::uint64_t seed : seeds) {
    base.push_back(run_gossip(gossip_net(2, 9, seed)));
    ASSERT_NE(base.back().fingerprint, 0u);
  }
  EXPECT_NE(base[0].fingerprint, base[1].fingerprint);
  for (std::size_t threads : {1u, 2u, 3u, 8u}) {
    std::vector<LoopRun> runs(seeds.size() * widths.size());
    core::parallel_cells(runs.size(), threads, [&](std::size_t i) {
      runs[i] = run_gossip(gossip_net(2, 9, seeds[i / widths.size()]),
                           widths[i % widths.size()]);
    });
    for (std::size_t i = 0; i < runs.size(); ++i) {
      expect_same_run(runs[i], base[i / widths.size()],
                      "threads=" + std::to_string(threads) + " cell " +
                          std::to_string(i));
    }
  }
}

TEST(ShardedSimulationTest, ProvisionalTimersStayInWindow) {
  // min_delay = 3 while gossip timers use delays 0..3: short timers fire
  // between a send and its earliest delivery. Every fire lands exactly on
  // the deadline of the timer's latest arming, and stepping in 3-tick
  // windows changes nothing.
  const NetworkConfig net = gossip_net(3, 11, 7);
  const LoopRun drain = run_gossip(net);
  const LoopRun windowed = run_gossip(net, 3);
  EXPECT_TRUE(drain.timers_on_time);
  EXPECT_TRUE(windowed.timers_on_time);
  EXPECT_GT(drain.short_timer_fires, 0u);
  EXPECT_GT(drain.metrics.timer_fires, drain.short_timer_fires);
  expect_same_run(drain, windowed, "3-tick windows vs full drain");
}

/// Records every delivery it is handed, one on_message each.
class FanInNode : public Process {
 public:
  void on_message(ProcessId from, const MessagePtr& msg) override {
    const auto& g = dynamic_cast<const GossipMsg&>(*msg);
    ++upcalls_;
    order_.push_back({from, g.tag, now()});
  }

  std::size_t upcalls_ = 0;
  std::vector<std::tuple<ProcessId, std::uint64_t, SimTime>> order_;
};

class BlastNode : public Process {
 public:
  BlastNode(ProcessId target, int count) : target_(target), count_(count) {}
  void start() override {
    for (int i = 0; i < count_; ++i) {
      send(target_, make_message<GossipMsg>(0, id() * 100 + i));
    }
  }
  void on_message(ProcessId, const MessagePtr&) override {}

 private:
  ProcessId target_;
  int count_;
};

TEST(ShardedSimulationTest, SameTickDeliveriesBatchIntoOneUpcall) {
  // A fixed-delay net lands every blast in the same tick. The serial loop
  // hands the batch to process 0 one on_message per delivery, in (time,
  // seq) order: senders in id order (start() runs in id order), each in
  // its own send order.
  const NetworkConfig net = gossip_net(5, 5, 11);
  constexpr int kSenders = 6;
  constexpr int kEach = 4;
  auto run = [&](SimTime width) {
    Simulation sim(kSenders + 1, net);
    auto& sink = sim.emplace_process<FanInNode>(0);
    for (ProcessId i = 1; i <= kSenders; ++i) {
      sim.emplace_process<BlastNode>(i, 0, kEach);
    }
    sim.start();
    drive(sim, width, 1'000);
    return std::make_tuple(sink.upcalls_, sink.order_, sim.metrics());
  };
  const auto [upcalls, order, metrics] = run(0);
  std::vector<std::tuple<ProcessId, std::uint64_t, SimTime>> expected;
  for (ProcessId i = 1; i <= kSenders; ++i) {
    for (int j = 0; j < kEach; ++j) {
      expected.push_back({i, i * 100 + static_cast<std::uint64_t>(j), 5});
    }
  }
  EXPECT_EQ(upcalls, std::size_t{kSenders * kEach});
  EXPECT_EQ(order, expected);
  EXPECT_EQ(metrics.messages_sent, std::size_t{kSenders * kEach});
  EXPECT_EQ(metrics.events_processed, std::size_t{kSenders * kEach});
  EXPECT_EQ(run(5), std::make_tuple(upcalls, order, metrics));
}

TEST(ShardedSimulationTest, ScheduledCrashRoutesThroughTheEngine) {
  // crash_at events go through the calendar queue like any other: a crash
  // scheduled before start() precedes every other event of its tick, so
  // the process is silent from that tick on, in any window schedule.
  const NetworkConfig net = gossip_net(1, 6, 23);
  const Crashes crashes = {{3, 10}, {7, 25}};
  const LoopRun crashed = run_gossip(net, 0, crashes);
  for (const auto& [id, t] : crashes) {
    EXPECT_TRUE(crashed.crashed[id]) << "process " << id;
    EXPECT_GE(crashed.last_activity[id], 0) << "process " << id;
    EXPECT_LT(crashed.last_activity[id], t) << "process " << id;
  }
  EXPECT_FALSE(crashed.crashed[0]);
  expect_same_run(run_gossip(net, 1, crashes), crashed,
                  "1-tick windows with crashes");
  expect_same_run(run_gossip(net, 7, crashes), crashed,
                  "7-tick windows with crashes");
  const LoopRun healthy = run_gossip(net);
  EXPECT_LT(crashed.metrics.messages_sent, healthy.metrics.messages_sent);
  EXPECT_NE(crashed.fingerprint, healthy.fingerprint);
}

}  // namespace
}  // namespace scup::sim

namespace scup::core {
namespace {

bool reports_identical(const ScenarioReport& a, const ScenarioReport& b) {
  return a.all_decided == b.all_decided && a.agreement == b.agreement &&
         a.validity == b.validity && a.decided_value == b.decided_value &&
         a.first_decision == b.first_decision &&
         a.last_decision == b.last_decision &&
         a.decision_times == b.decision_times &&
         a.sd_all_returned == b.sd_all_returned &&
         a.sd_sink_exact == b.sd_sink_exact &&
         a.sd_flags_correct == b.sd_flags_correct &&
         a.true_sink == b.true_sink && a.metrics == b.metrics &&
         a.notary_fingerprint == b.notary_fingerprint &&
         a.end_time == b.end_time;
}

/// Runs `matrix` at each worker count and expects every cell to match
/// `base` (the inline run_scenario reports, in cell order).
void expect_matrix_matches(const ScenarioMatrix& matrix,
                           const std::vector<ScenarioReport>& base,
                           const std::vector<std::size_t>& thread_counts) {
  for (std::size_t threads : thread_counts) {
    const std::vector<CellResult> cells = matrix.run(threads);
    ASSERT_EQ(cells.size(), base.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_TRUE(reports_identical(cells[i].report, base[i]))
          << "threads=" << threads << " cell " << cells[i].variant
          << " seed=" << cells[i].seed
          << " diverged from the inline serial run";
    }
  }
}

ChurnPartitionParams small_churn(ProtocolKind protocol, std::uint64_t seed) {
  ChurnPartitionParams p;
  p.n = 12;
  p.f = 1;
  p.protocol = protocol;
  p.late_fraction = 0.5;
  p.late_window = 1'000;
  p.with_partition = true;
  p.gst = 1'500;
  p.seed = seed;
  return p;
}

TEST(ShardedScenarioTest, EveryShardCountMatchesTheWindowedBaseline) {
  // A ScenarioMatrix shards an experiment by cell: each cell is one
  // self-contained serial simulation. Fuzz the worker count across both
  // protocols and several seeds on the E12 churn + partition family:
  // every cell must decide and match the report run_scenario gives inline.
  const std::vector<std::uint64_t> seeds = {1, 2};
  ScenarioMatrix matrix;
  std::vector<ScenarioReport> base;
  for (ProtocolKind protocol :
       {ProtocolKind::kStellarSd, ProtocolKind::kBftCup}) {
    matrix.add_variant(
        "protocol=" + std::to_string(static_cast<int>(protocol)),
        [protocol](std::uint64_t seed) {
          return churn_partition_scenario(small_churn(protocol, seed));
        });
    for (std::uint64_t seed : seeds) {
      base.push_back(
          run_scenario(churn_partition_scenario(small_churn(protocol, seed))));
      EXPECT_TRUE(base.back().all_decided);
      EXPECT_TRUE(base.back().agreement);
      EXPECT_NE(base.back().notary_fingerprint, 0u);
    }
  }
  matrix.seeds(seeds);
  expect_matrix_matches(matrix, base, {1, 2, 3, 8});
}

ChurnPartitionParams matrix_shape(int shape) {
  ChurnPartitionParams p;
  p.n = 12;
  p.f = 1;
  p.gst = 1'500;
  p.late_window = 1'000;
  p.seed = 5;
  p.with_partition = shape >= 1;
  if (shape == 2) p.pre_gst_drop = 0.2;
  p.with_crash = shape == 3;
  return p;
}

TEST(ShardedScenarioTest, AllMatrixShapesAreShardInvariant) {
  // The four E12 shapes (churn / +partition / +loss / +crash) each stress
  // a different part of the loop — mailbox activation, partition heal
  // verdicts, pre-GST loss, scheduled crash events — and each must give
  // the same report on one worker, on two, and inline.
  ScenarioMatrix matrix;
  std::vector<ScenarioReport> base;
  for (int shape = 0; shape < 4; ++shape) {
    matrix.add_variant("shape=" + std::to_string(shape),
                       [shape](std::uint64_t) {
                         return churn_partition_scenario(matrix_shape(shape));
                       });
    base.push_back(run_scenario(churn_partition_scenario(matrix_shape(shape))));
    EXPECT_TRUE(base.back().all_decided) << "shape=" << shape;
  }
  EXPECT_GT(base[2].metrics.messages_dropped, 0u);
  matrix.seeds({5});
  expect_matrix_matches(matrix, base, {1, 2});
}

TEST(ShardedScenarioTest, LedgerChainsAndZeroCopyWrapsAreShardInvariant) {
  // Multi-slot SCP: chains must match across replicas and across worker
  // threads, and the SlotHost shared-wrap cache must be serving broadcasts
  // (the zero-copy envelope path).
  const auto g = graph::fig2_graph();
  constexpr std::uint64_t kSlots = 3;
  struct LedgerRun {
    std::uint64_t digest = 0;
    std::uint64_t fingerprint = 0;
    sim::SimMetrics metrics;
    bool done = false;
    bool replicas_agree = true;
  };
  auto run = [&] {
    sim::NetworkConfig net;
    net.seed = 17;
    net.min_delay = 1;
    net.max_delay = 10;
    sim::Simulation sim(g.node_count(), net);
    std::vector<LedgerNode*> nodes;
    for (ProcessId i = 0; i < g.node_count(); ++i) {
      nodes.push_back(
          &sim.emplace_process<LedgerNode>(i, g.pd_of(i), 1, kSlots));
    }
    sim.start();
    LedgerRun out;
    out.done = sim.run_until(
        [&] {
          for (auto* node : nodes) {
            if (node->decided_slots() < kSlots) return false;
          }
          return true;
        },
        3'000'000);
    out.digest = nodes[0]->chain_digest();
    for (auto* node : nodes) {
      out.replicas_agree =
          out.replicas_agree && node->chain_digest() == out.digest;
    }
    out.fingerprint = sim.notary().fingerprint();
    out.metrics = sim.metrics();
    return out;
  };
  const LedgerRun base = run();
  ASSERT_TRUE(base.done);
  EXPECT_TRUE(base.replicas_agree);
  EXPECT_NE(base.digest, 0u);
  std::vector<LedgerRun> threaded(2);
  parallel_cells(threaded.size(), 2,
                 [&](std::size_t i) { threaded[i] = run(); });
  for (std::size_t i = 0; i < threaded.size(); ++i) {
    const LedgerRun& r = threaded[i];
    const std::string what = "cell " + std::to_string(i);
    EXPECT_TRUE(r.done) << what;
    EXPECT_TRUE(r.replicas_agree) << what;
    EXPECT_EQ(r.digest, base.digest) << what;
    EXPECT_EQ(r.fingerprint, base.fingerprint) << what;
    EXPECT_EQ(r.metrics, base.metrics) << what;
  }
  const auto shared =
      base.metrics.protocol_counter(sim::ProtoCounter::kSlotWrapsShared);
  const auto wraps =
      base.metrics.protocol_counter(sim::ProtoCounter::kSlotWraps);
  EXPECT_GT(wraps, 0u);
  // Broadcasts go to several peers: most sends must hit the cache.
  EXPECT_GT(shared, wraps);
}

}  // namespace
}  // namespace scup::core

namespace scup::sim {
namespace {

constexpr std::size_t kHetN = 24;

/// Slow base (min 6) with fast (id -> id+2) lanes (min 1): the global
/// latency floor is 1 while every other pair keeps the 6-tick base floor.
NetworkConfig het_net(std::uint64_t seed) {
  NetworkConfig net = gossip_net(6, 12, seed);
  for (ProcessId i = 0; i < kHetN; ++i) {
    net.link_overrides.push_back(
        {i, static_cast<ProcessId>((i + 2) % kHetN), 1, 3});
  }
  return net;
}

LoopRun run_het(const NetworkConfig& net, SimTime width = 0,
                SimTime horizon = kHorizon) {
  return run_nodes<HetNode>(kHetN, net, width, horizon);
}

// ---------------------------------------------------------------------------
// Verdict recording: per-send (from, to, now, stream state, verdict).

struct SendRecord {
  ProcessId from = 0;
  ProcessId to = 0;
  SimTime now = 0;
  StreamRng stream_before{0};
  NetworkModel::Verdict verdict;
};

/// Wraps a UniformModel and records every verdict together with a copy of
/// the sender's stream as it stood before the draw. `extra_draws_from`
/// names a sender whose stream the wrapper advances by one undeclared
/// draw after each of its verdicts (kInvalidProcess: none).
class RecordingModel final : public NetworkModel {
 public:
  RecordingModel(const NetworkConfig& config, std::vector<SendRecord>* out,
                 ProcessId extra_draws_from)
      : inner_(config), out_(out), extra_draws_from_(extra_draws_from) {}

  Verdict on_send(ProcessId from, ProcessId to, SimTime now,
                  StreamRng& rng) override {
    const StreamRng before = rng;
    const Verdict v = inner_.on_send(from, to, now, rng);
    if (from == extra_draws_from_) rng.next_u64();
    out_->push_back({from, to, now, before, v});
    return v;
  }

 private:
  UniformModel inner_;
  std::vector<SendRecord>* out_;
  ProcessId extra_draws_from_;
};

/// Every verdict of an n-process run of `Node(n, arg)` under `net`.
template <typename Node>
std::vector<SendRecord> record(const NetworkConfig& net, std::size_t n,
                               int arg, SimTime width = 0,
                               ProcessId extra_draws_from = kInvalidProcess) {
  std::vector<SendRecord> records;
  Simulation sim(n, net,
                 std::make_unique<RecordingModel>(net, &records,
                                                  extra_draws_from));
  for (ProcessId i = 0; i < n; ++i) sim.emplace_process<Node>(i, n, arg);
  sim.start();
  drive(sim, width, kHorizon);
  return records;
}

using Pair = std::pair<ProcessId, ProcessId>;

/// Smallest and largest verdict latency seen on each directed pair.
std::map<Pair, std::pair<SimTime, SimTime>> latency_range(
    const std::vector<SendRecord>& records) {
  std::map<Pair, std::pair<SimTime, SimTime>> out;
  for (const SendRecord& r : records) {
    if (r.verdict.dropped) continue;
    const SimTime d = r.verdict.deliver_at - r.now;
    const auto [it, fresh] = out.try_emplace({r.from, r.to}, d, d);
    if (!fresh) {
      it->second.first = std::min(it->second.first, d);
      it->second.second = std::max(it->second.second, d);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Per-pair latency floors.

TEST(LookaheadWindowTest, PerPairWidthsReflectTheCrossShardMatrix) {
  // n = 4 all-to-all with a single override 0 -> 1 in [2, 9] on a
  // [6, 12] base: that pair's window is the override, every other pair
  // keeps the base bounds.
  NetworkConfig net = gossip_net(6, 12, 3);
  net.link_overrides.push_back({0, 1, 2, 9});
  const auto range = latency_range(record<StampNode>(net, 4, 40));
  ASSERT_EQ(range.size(), 12u);
  for (const auto& [pair, lohi] : range) {
    if (pair == Pair{0, 1}) {
      EXPECT_GE(lohi.first, 2);
      EXPECT_LT(lohi.first, 6) << "the override is not in effect";
      EXPECT_LE(lohi.second, 9);
    } else {
      EXPECT_GE(lohi.first, 6) << pair.first << " -> " << pair.second;
      EXPECT_LE(lohi.second, 12) << pair.first << " -> " << pair.second;
    }
  }
}

TEST(LookaheadWindowTest, IntraShardOverridesNeverConstrainTheWindow) {
  // An override constrains its own directed link and nothing else: under
  // het_net every (i -> i+2) lane stays in [1, 3] and every other pair,
  // the reverse lanes included, keeps the 6-tick base floor.
  const auto range = latency_range(record<HetNode>(het_net(1), kHetN, 6));
  std::size_t lanes = 0;
  std::size_t others = 0;
  for (const auto& [pair, lohi] : range) {
    if (pair.second == (pair.first + 2) % kHetN) {
      ++lanes;
      EXPECT_GE(lohi.first, 1);
      EXPECT_LE(lohi.second, 3);
    } else {
      ++others;
      EXPECT_GE(lohi.first, 6) << pair.first << " -> " << pair.second;
      EXPECT_LE(lohi.second, 12) << pair.first << " -> " << pair.second;
    }
  }
  EXPECT_EQ(lanes, kHetN);
  EXPECT_GT(others, 0u);
}

TEST(LookaheadWindowTest, GlobalMinModeUsesThePessimizedFloor) {
  // The global floor is the minimum over every pair: the fast lanes drag
  // it down to 1 while the slowest pair's floor stays at the base 6.
  const auto range = latency_range(record<HetNode>(het_net(1), kHetN, 6));
  SimTime global_min = kTimeInfinity;
  SimTime widest_floor = 0;
  for (const auto& [pair, lohi] : range) {
    global_min = std::min(global_min, lohi.first);
    widest_floor = std::max(widest_floor, lohi.first);
  }
  EXPECT_EQ(global_min, 1);
  EXPECT_GE(widest_floor, 6);
}

TEST(LookaheadWindowTest, SingleShardHasUnboundedLookahead) {
  // With a zero latency floor there is no lookahead at all: a message can
  // land in the very tick it was sent, and the serial loop needs none.
  const auto records = record<StampNode>(gossip_net(0, 4, 8), 8, 10);
  std::size_t zero = 0;
  for (const SendRecord& r : records) {
    EXPECT_GE(r.verdict.deliver_at, r.now);
    EXPECT_LE(r.verdict.deliver_at, r.now + 4);
    if (r.verdict.deliver_at == r.now) ++zero;
  }
  EXPECT_GT(zero, 0u);
  EXPECT_EQ(records.size(), std::size_t{8 * 7 * 10});
}

TEST(LookaheadWindowTest, NamesTheOffendingCrossShardLink) {
  // One zero-latency override 0 -> 1 on a [6, 12] base: that link, and
  // only that link, delivers faster than the base floor.
  NetworkConfig net = gossip_net(6, 12, 5);
  net.link_overrides.push_back({0, 1, 0, 4});
  const auto range = latency_range(record<StampNode>(net, 4, 40));
  std::set<Pair> fast;
  for (const auto& [pair, lohi] : range) {
    if (lohi.first < 6) fast.insert(pair);
  }
  EXPECT_EQ(fast, (std::set<Pair>{{0, 1}}));
  EXPECT_EQ(range.at({0, 1}).first, 0);
}

TEST(LookaheadWindowTest, NamesTheBaseFloorWhenUnoverriddenPairsAreTooFast) {
  // With no overrides every pair takes the base bounds, so a zero base
  // floor shows up on the unoverridden pairs themselves.
  const auto range =
      latency_range(record<StampNode>(gossip_net(0, 4, 6), 4, 40));
  ASSERT_EQ(range.size(), 12u);
  std::size_t zero_pairs = 0;
  for (const auto& [pair, lohi] : range) {
    EXPECT_GE(lohi.first, 0);
    EXPECT_LE(lohi.second, 4);
    if (lohi.first == 0) ++zero_pairs;
  }
  EXPECT_GE(zero_pairs, 2u);
}

TEST(LookaheadWindowTest, ZeroLatencyModelIsLegalWithOneShard) {
  // A zero latency floor runs on the serial loop, and one-tick windows
  // still match the full drain bit for bit, same-tick deliveries
  // included.
  const NetworkConfig net = gossip_net(0, 4, 5);
  const LoopRun drain = run_het(net, 0, 2'000);
  expect_same_run(drain, run_het(net, 1, 2'000),
                  "zero floor, 1-tick windows");
  EXPECT_NE(drain.fingerprint, 0u);
}

// ---------------------------------------------------------------------------
// Identity: window schedules never change results.

TEST(LookaheadIdentityTest, HetLinksPartitionsAndLossAcrossShardCounts) {
  // The full feature set at once: heterogeneous links, a partition window,
  // pre-GST loss and duplication, driven in windows from the global floor
  // (1 tick) to wider than the base floor.
  NetworkConfig net = het_net(23);
  net.gst = 400;
  net.pre_gst_max_delay = 60;
  net.pre_gst_drop = 0.2;
  net.pre_gst_duplicate = 0.2;
  PartitionWindow cut;
  cut.side = NodeSet(kHetN);
  for (ProcessId i = 0; i < kHetN / 3; ++i) cut.side.add(i);
  cut.start = 50;
  cut.heal = 400;
  net.partitions.push_back(cut);

  const LoopRun base = run_het(net);
  ASSERT_NE(base.fingerprint, 0u);
  ASSERT_GT(base.metrics.messages_dropped, 0u);
  ASSERT_GT(base.metrics.messages_duplicated, 0u);
  for (SimTime width : {1, 2, 3, 6, 8}) {
    expect_same_run(run_het(net, width), base,
                    "width=" + std::to_string(width));
  }
}

TEST(LookaheadIdentityTest, GlobalMinBaselineIsBitIdenticalButSlower) {
  // Windows as narrow as the global latency floor (1 tick) against
  // windows as wide as the base floor (6 ticks): identical observables,
  // but the narrow schedule needs at least twice as many working windows.
  const NetworkConfig net = het_net(9);
  const LoopRun narrow = run_het(net, 1);
  const LoopRun wide = run_het(net, 6);
  expect_same_run(narrow, wide, "1-tick vs 6-tick windows");
  expect_same_run(run_het(net), wide, "full drain vs 6-tick windows");
  ASSERT_GT(wide.windows, 0u);
  EXPECT_GE(narrow.windows, 2 * wide.windows);
}

TEST(LookaheadIdentityTest, ScenarioGridBothProtocolsThroughRunUntil) {
  // Scenario runs stop on a predicate through run_until, so the stop
  // point itself is part of the result. Heterogeneous links on top of the
  // churn + partition + loss scenario, both protocols: every worker count
  // reproduces the inline run, stop tick included.
  for (core::ProtocolKind protocol :
       {core::ProtocolKind::kStellarSd, core::ProtocolKind::kBftCup}) {
    auto make = [protocol](std::uint64_t seed) {
      core::ChurnPartitionParams p;
      p.protocol = protocol;
      p.seed = seed;
      p.with_partition = true;
      p.pre_gst_drop = 0.1;
      core::ScenarioConfig cfg = core::churn_partition_scenario(p);
      cfg.net.link_overrides.push_back({2, 7, 2, 9});
      cfg.net.link_overrides.push_back({7, 2, 2, 9});
      cfg.net.link_overrides.push_back({0, 3, 3, 9});
      return cfg;
    };
    const core::ScenarioReport base = core::run_scenario(make(11));
    ASSERT_TRUE(base.all_decided) << "protocol=" << static_cast<int>(protocol);
    core::ScenarioMatrix matrix;
    matrix.add_variant("het", make).seeds({11});
    for (std::size_t threads : {1u, 2u}) {
      const auto cells = matrix.run(threads);
      ASSERT_EQ(cells.size(), 1u);
      const core::ScenarioReport& run = cells[0].report;
      const std::string what = "protocol=" +
                               std::to_string(static_cast<int>(protocol)) +
                               " threads=" + std::to_string(threads);
      EXPECT_EQ(run.notary_fingerprint, base.notary_fingerprint) << what;
      EXPECT_EQ(run.metrics, base.metrics) << what;
      EXPECT_EQ(run.decision_times, base.decision_times) << what;
      EXPECT_EQ(run.end_time, base.end_time) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// Per-sender streams and UniformModel's fixed draw plan.

/// Draws UniformModel's plan takes for one send at `now` under `net`.
int planned_draws(const NetworkConfig& net, SimTime now) {
  if (now >= net.gst) return 1;
  return 1 + (net.pre_gst_drop > 0.0 ? 1 : 0) +
         (net.pre_gst_duplicate > 0.0 ? 2 : 0);
}

bool same_verdict(const NetworkModel::Verdict& a,
                  const NetworkModel::Verdict& b) {
  return a.deliver_at == b.deliver_at && a.dropped == b.dropped &&
         a.duplicated == b.duplicated && a.duplicate_at == b.duplicate_at;
}

std::vector<std::vector<SendRecord>> by_sender(
    const std::vector<SendRecord>& all, std::size_t n) {
  std::vector<std::vector<SendRecord>> out(n);
  for (const SendRecord& r : all) out[r.from].push_back(r);
  return out;
}

TEST(DrawPlanTest, ReplayReproducesEveryVerdictDrawForDraw) {
  NetworkConfig net = het_net(77);
  net.gst = 300;
  net.pre_gst_max_delay = 40;
  net.pre_gst_drop = 0.3;
  net.pre_gst_duplicate = 0.3;

  const std::vector<SendRecord> live = record<HetNode>(net, kHetN, 5);
  ASSERT_FALSE(live.empty());
  UniformModel replay_model(net);

  // Draw for draw: each verdict consumes exactly the planned number of
  // draws (base delay; pre-GST the drop coin, the duplicate coin and the
  // duplicate's delay), whatever the outcome.
  bool saw_drop = false;
  bool saw_dup = false;
  for (const SendRecord& r : live) {
    StreamRng replay = r.stream_before;
    const NetworkModel::Verdict v =
        replay_model.on_send(r.from, r.to, r.now, replay);
    EXPECT_TRUE(same_verdict(v, r.verdict));
    StreamRng skip = r.stream_before;
    for (int i = 0; i < planned_draws(net, r.now); ++i) skip.next_u64();
    EXPECT_EQ(replay.next_u64(), skip.next_u64())
        << "send " << r.from << " -> " << r.to << " at " << r.now;
    saw_drop = saw_drop || v.dropped;
    saw_dup = saw_dup || v.duplicated;
  }
  EXPECT_TRUE(saw_drop);
  EXPECT_TRUE(saw_dup);

  // A sender's stream is drawn only by its own sends: replaying all of a
  // sender's sends, in order, on one copy of its stream as it stood at its
  // first send reproduces every verdict.
  const auto live_by = by_sender(live, kHetN);
  for (ProcessId sender = 0; sender < kHetN; ++sender) {
    ASSERT_FALSE(live_by[sender].empty()) << "sender " << sender;
    StreamRng stream = live_by[sender].front().stream_before;
    for (const SendRecord& r : live_by[sender]) {
      EXPECT_TRUE(same_verdict(
          replay_model.on_send(r.from, r.to, r.now, stream), r.verdict))
          << "sender " << sender << " at " << r.now;
    }
  }

  // Per-sender histories do not depend on the window schedule.
  const auto windowed_by = by_sender(record<HetNode>(net, kHetN, 5, 1), kHetN);
  for (ProcessId sender = 0; sender < kHetN; ++sender) {
    ASSERT_EQ(windowed_by[sender].size(), live_by[sender].size())
        << "sender " << sender;
    for (std::size_t i = 0; i < live_by[sender].size(); ++i) {
      const SendRecord& a = live_by[sender][i];
      const SendRecord& b = windowed_by[sender][i];
      EXPECT_EQ(a.to, b.to);
      EXPECT_EQ(a.now, b.now);
      EXPECT_TRUE(same_verdict(a.verdict, b.verdict));
    }
  }
}

TEST(DrawPlanTest, ContractViolationIsDetectedAtTheSend) {
  // A model that draws off-plan from one sender's stream — here one
  // undeclared extra draw after each of sender 0's verdicts — shows up at
  // that sender's next send and nowhere else: on a send schedule that
  // does not react to receipts, every other sender's verdicts are
  // unchanged.
  const NetworkConfig net = gossip_net(1, 20, 31);
  constexpr std::size_t kN = 5;
  constexpr int kRounds = 30;
  const auto honest = by_sender(record<StampNode>(net, kN, kRounds), kN);
  const auto lying = by_sender(record<StampNode>(net, kN, kRounds, 0, 0), kN);
  for (ProcessId sender = 0; sender < kN; ++sender) {
    ASSERT_EQ(lying[sender].size(), honest[sender].size());
    ASSERT_EQ(honest[sender].size(), std::size_t{(kN - 1) * kRounds});
  }
  // Sender 0: the first verdict precedes any off-plan draw; later ones
  // come from a shifted stream.
  EXPECT_TRUE(same_verdict(lying[0][0].verdict, honest[0][0].verdict));
  std::size_t diverged = 0;
  for (std::size_t i = 1; i < honest[0].size(); ++i) {
    if (!same_verdict(lying[0][i].verdict, honest[0][i].verdict)) ++diverged;
  }
  EXPECT_GT(diverged, honest[0].size() / 2);
  for (ProcessId sender = 1; sender < kN; ++sender) {
    for (std::size_t i = 0; i < honest[sender].size(); ++i) {
      EXPECT_TRUE(same_verdict(lying[sender][i].verdict,
                               honest[sender][i].verdict))
          << "sender " << sender << " send " << i;
    }
  }
}

}  // namespace
}  // namespace scup::sim
