// The pluggable link layer (sim::NetworkModel) and the staged-participation
// runtime: link overrides, partition schedules, pre-GST loss/duplication,
// crash(id) vs isolate(id), and activate(id, t) mailbox semantics.
#include "sim/network_model.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "sim/simulation.hpp"

namespace scup::sim {
namespace {

struct NoteMsg final : Message {
  explicit NoteMsg(int p) : payload(p) {}
  int payload;
  std::string type_name() const override { return "test.note"; }
  std::size_t byte_size() const override { return 16; }
};

/// Records every delivery with its simulated arrival time.
struct Recorder : Process {
  void on_message(ProcessId from, const MessagePtr& msg) override {
    const auto& note = dynamic_cast<const NoteMsg&>(*msg);
    deliveries.push_back({from, note.payload, now()});
  }
  struct Delivery {
    ProcessId from;
    int payload;
    SimTime at;
  };
  std::vector<Delivery> deliveries;
};

/// Sends one NoteMsg per entry of `plan` (target, payload, send time).
struct Sender : Process {
  struct Planned {
    ProcessId to;
    int payload;
    SimTime at;
  };
  explicit Sender(std::vector<Planned> plan) : plan_(std::move(plan)) {}
  void start() override {
    for (std::size_t i = 0; i < plan_.size(); ++i) {
      set_timer(static_cast<int>(i) + 1, plan_[i].at);
    }
  }
  void on_timer(int timer_id) override {
    const Planned& p = plan_[static_cast<std::size_t>(timer_id) - 1];
    send(p.to, make_message<NoteMsg>(p.payload));
  }
  void on_message(ProcessId, const MessagePtr&) override {}
  std::vector<Planned> plan_;
};

NetworkConfig sync_net() {
  NetworkConfig net;
  net.gst = 0;
  net.min_delay = 1;
  net.max_delay = 5;
  net.seed = 42;
  return net;
}

TEST(NetworkModelTest, ExplicitUniformModelMatchesDefault) {
  const NetworkConfig net = sync_net();
  auto run = [&](std::unique_ptr<NetworkModel> model) {
    auto sim = model ? std::make_unique<Simulation>(2, net, std::move(model))
                     : std::make_unique<Simulation>(2, net);
    sim->emplace_process<Sender>(
        0, std::vector<Sender::Planned>{{1, 1, 1}, {1, 2, 3}, {1, 3, 9}});
    auto& r = sim->emplace_process<Recorder>(1);
    sim->start();
    sim->run_for(1'000);
    std::vector<SimTime> times;
    for (const auto& d : r.deliveries) times.push_back(d.at);
    return times;
  };
  EXPECT_EQ(run(nullptr), run(std::make_unique<UniformModel>(net)));
}

TEST(NetworkModelTest, LinkOverrideIsPerDirection) {
  NetworkConfig net = sync_net();
  net.link_overrides.push_back({0, 1, 50, 50});  // only the 0 -> 1 direction
  Simulation sim(2, net);
  sim.emplace_process<Sender>(0,
                              std::vector<Sender::Planned>{{1, 7, 0}});
  auto& r1 = sim.emplace_process<Recorder>(1);
  sim.start();
  sim.run_for(1'000);
  ASSERT_EQ(r1.deliveries.size(), 1u);
  EXPECT_EQ(r1.deliveries[0].at, 50);  // overridden: exactly min=max=50

  // Reverse direction keeps the global [1, 5] bounds.
  Simulation rev(2, net);
  auto& r0 = rev.emplace_process<Recorder>(0);
  rev.emplace_process<Sender>(1, std::vector<Sender::Planned>{{0, 7, 0}});
  rev.start();
  rev.run_for(1'000);
  ASSERT_EQ(r0.deliveries.size(), 1u);
  EXPECT_GE(r0.deliveries[0].at, 1);
  EXPECT_LE(r0.deliveries[0].at, 5);
}

TEST(NetworkModelTest, PartitionDefersCrossingMessagesUntilHeal) {
  NetworkConfig net = sync_net();
  NodeSet side(3, {0});
  net.partitions.push_back({side, 0, 1'000});
  Simulation sim(3, net);
  // 0 -> 1 crosses the cut at t=2; 2 -> 1 stays inside the majority side;
  // 0 -> 1 again at t=1500, after the heal.
  sim.emplace_process<Sender>(
      0, std::vector<Sender::Planned>{{1, 1, 2}, {1, 3, 1'500}});
  auto& r = sim.emplace_process<Recorder>(1);
  sim.emplace_process<Sender>(2, std::vector<Sender::Planned>{{1, 2, 2}});
  sim.start();
  sim.run_for(10'000);
  ASSERT_EQ(r.deliveries.size(), 3u);
  // Uncut link: normal delay.
  EXPECT_EQ(r.deliveries[0].payload, 2);
  EXPECT_LE(r.deliveries[0].at, 2 + 5);
  // Crossing message: deferred to heal + sampled delay.
  EXPECT_EQ(r.deliveries[1].payload, 1);
  EXPECT_GE(r.deliveries[1].at, 1'000 + 1);
  EXPECT_LE(r.deliveries[1].at, 1'000 + 5);
  // After the heal the link is normal again.
  EXPECT_EQ(r.deliveries[2].payload, 3);
  EXPECT_LE(r.deliveries[2].at, 1'500 + 5);
}

TEST(NetworkModelTest, PreGstDropIsLossBeforeGstOnly) {
  NetworkConfig net = sync_net();
  net.gst = 100;
  net.pre_gst_max_delay = 20;
  net.pre_gst_drop = 1.0;  // every pre-GST message is lost
  Simulation sim(2, net);
  sim.emplace_process<Sender>(
      0, std::vector<Sender::Planned>{{1, 1, 0}, {1, 2, 50}, {1, 3, 200}});
  auto& r = sim.emplace_process<Recorder>(1);
  sim.start();
  sim.run_for(10'000);
  ASSERT_EQ(r.deliveries.size(), 1u);  // only the post-GST send arrives
  EXPECT_EQ(r.deliveries[0].payload, 3);
  EXPECT_EQ(sim.metrics().messages_sent, 3u);  // sends are still counted
  EXPECT_EQ(sim.metrics().messages_dropped, 2u);
}

TEST(NetworkModelTest, PreGstDuplicateDeliversTwoCopies) {
  NetworkConfig net = sync_net();
  net.gst = 100;
  net.pre_gst_max_delay = 20;
  net.pre_gst_duplicate = 1.0;
  Simulation sim(2, net);
  sim.emplace_process<Sender>(0, std::vector<Sender::Planned>{{1, 9, 0}});
  auto& r = sim.emplace_process<Recorder>(1);
  sim.start();
  sim.run_for(10'000);
  ASSERT_EQ(r.deliveries.size(), 2u);
  EXPECT_EQ(r.deliveries[0].payload, 9);
  EXPECT_EQ(r.deliveries[1].payload, 9);
  EXPECT_EQ(sim.metrics().messages_sent, 1u);
  EXPECT_EQ(sim.metrics().messages_duplicated, 1u);
}

TEST(NetworkModelTest, ConfigValidation) {
  NetworkConfig bad_prob = sync_net();
  bad_prob.pre_gst_drop = 1.5;
  EXPECT_THROW(Simulation(2, bad_prob), std::invalid_argument);

  NetworkConfig bad_window = sync_net();
  bad_window.partitions.push_back({NodeSet(2, {0}), 100, 50});
  EXPECT_THROW(Simulation(2, bad_window), std::invalid_argument);

  NetworkConfig bad_override = sync_net();
  bad_override.link_overrides.push_back({0, 1, 10, 5});
  EXPECT_THROW(Simulation(2, bad_override), std::invalid_argument);
}

/// Custom model: fixed 7-tick delay on every link — pins the NetworkModel
/// seam itself, not just UniformModel.
struct FixedDelayModel final : NetworkModel {
  Verdict on_send(ProcessId, ProcessId, SimTime now, StreamRng&) override {
    return {.deliver_at = now + 7};  // draws nothing from the stream
  }
};

TEST(NetworkModelTest, CustomModelPluggedIn) {
  Simulation sim(2, sync_net(), std::make_unique<FixedDelayModel>());
  sim.emplace_process<Sender>(
      0, std::vector<Sender::Planned>{{1, 1, 0}, {1, 2, 10}});
  auto& r = sim.emplace_process<Recorder>(1);
  sim.start();
  sim.run_for(1'000);
  ASSERT_EQ(r.deliveries.size(), 2u);
  EXPECT_EQ(r.deliveries[0].at, 7);
  EXPECT_EQ(r.deliveries[1].at, 17);
}

// ---- crash(id): the full-stop fault primitive ----

/// Sends a note to `peer` on every recurring timer tick.
struct Ticker : Process {
  explicit Ticker(ProcessId peer) : peer_(peer) {}
  void start() override { set_timer(1, 10); }
  void on_timer(int) override {
    ++ticks;
    send(peer_, make_message<NoteMsg>(ticks));
    set_timer(1, 10);
  }
  void on_message(ProcessId, const MessagePtr&) override {}
  ProcessId peer_;
  int ticks = 0;
};

TEST(CrashTest, CrashStopsTimersSendsAndDeliveries) {
  Simulation sim(2, sync_net());
  auto& t = sim.emplace_process<Ticker>(0, 1);
  auto& r = sim.emplace_process<Recorder>(1);
  sim.start();
  sim.run_for(100);
  const int ticks_before = t.ticks;
  EXPECT_GT(ticks_before, 0);
  sim.crash(0);
  EXPECT_TRUE(sim.crashed(0));
  sim.run_for(10'000);
  // No timer fired after the crash, so no further sends either.
  EXPECT_EQ(t.ticks, ticks_before);
  for (const auto& d : r.deliveries) EXPECT_LE(d.at, 100 + 5);

  // And a crashed receiver gets nothing, even messages already in flight.
  Simulation sim2(2, sync_net());
  sim2.emplace_process<Ticker>(0, 1);
  auto& r2 = sim2.emplace_process<Recorder>(1);
  sim2.start();
  sim2.crash(1);
  sim2.run_for(1'000);
  EXPECT_TRUE(r2.deliveries.empty());
}

TEST(CrashTest, CrashAtSchedulesTheStop) {
  Simulation sim(2, sync_net());
  auto& t = sim.emplace_process<Ticker>(0, 1);
  sim.emplace_process<Recorder>(1);
  sim.crash_at(0, 55);  // before start(): queued for the run
  sim.start();
  sim.run_for(10'000);
  EXPECT_EQ(t.ticks, 5);  // fires at 10,20,30,40,50 and then never again
  EXPECT_TRUE(sim.crashed(0));
}

TEST(CrashTest, CrashAtBetweenRunCallsBelowTheNextEvent) {
  // run_for(100) peeks past the deadline at the next event (t=110); a
  // crash then scheduled at t=105 — between `now` and that peeked event —
  // must still order correctly (regression: the event queue's peek must
  // not commit its cursor past pushable times).
  Simulation sim(2, sync_net());
  auto& t = sim.emplace_process<Ticker>(0, 1);
  sim.emplace_process<Recorder>(1);
  sim.start();
  sim.run_for(100);  // ticks at 10..100; next timer event waits at 110
  EXPECT_EQ(t.ticks, 10);
  sim.crash_at(0, 105);
  sim.run_for(10'000);
  EXPECT_EQ(t.ticks, 10);  // the 110 firing was preempted by the crash
  EXPECT_TRUE(sim.crashed(0));
}

TEST(CrashTest, CrashAtGenesisSuppressesStart) {
  // crash_at(id, 0) means the process never ran: start() must not fire
  // (regression: it used to run synchronously before the t=0 crash event
  // popped, leaking the crashed node's bootstrap messages).
  Simulation sim(2, sync_net());
  auto& t = sim.emplace_process<Ticker>(0, 1);
  auto& r = sim.emplace_process<Recorder>(1);
  sim.crash_at(0, 0);
  sim.start();
  sim.run_for(1'000);
  EXPECT_EQ(t.ticks, 0);
  EXPECT_TRUE(r.deliveries.empty());
  EXPECT_EQ(sim.metrics().messages_sent, 0u);
}

TEST(CrashTest, IsolateKeepsTheProcessRunningUnlikeCrash) {
  // isolate() is the partition-style legacy fault: deliveries stop but the
  // process keeps ticking and sending.
  Simulation sim(2, sync_net());
  auto& t = sim.emplace_process<Ticker>(0, 1);
  sim.emplace_process<Recorder>(1);
  sim.isolate(0);
  sim.start();
  sim.run_for(500);
  EXPECT_GT(t.ticks, 10);  // still running (and still sending)
  EXPECT_GT(sim.metrics().messages_sent, 10u);
}

// ---- activate(id, t): staged participant arrival ----

struct StartRecorder : Process {
  void start() override { started_at = now(); }
  void on_message(ProcessId from, const MessagePtr& msg) override {
    const auto& note = dynamic_cast<const NoteMsg&>(*msg);
    deliveries.push_back({from, note.payload, now()});
  }
  SimTime started_at = -1;
  std::vector<Recorder::Delivery> deliveries;
};

TEST(ActivationTest, DeferredStartAndMailboxFlush) {
  Simulation sim(2, sync_net());
  sim.emplace_process<Sender>(
      0, std::vector<Sender::Planned>{{1, 1, 0}, {1, 2, 100}, {1, 3, 600}});
  auto& late = sim.emplace_process<StartRecorder>(1);
  sim.activate(1, 500);
  sim.start();
  EXPECT_FALSE(sim.active(1));
  sim.run_for(10'000);
  EXPECT_TRUE(sim.active(1));
  EXPECT_EQ(late.started_at, 500);
  ASSERT_EQ(late.deliveries.size(), 3u);
  // The two early messages waited in the mailbox and arrived, in order,
  // right at activation; the post-activation message flowed normally.
  EXPECT_EQ(late.deliveries[0].payload, 1);
  EXPECT_EQ(late.deliveries[0].at, 500);
  EXPECT_EQ(late.deliveries[1].payload, 2);
  EXPECT_EQ(late.deliveries[1].at, 500);
  EXPECT_EQ(late.deliveries[2].payload, 3);
  EXPECT_GE(late.deliveries[2].at, 600 + 1);
}

TEST(ActivationTest, ActivationErrors) {
  Simulation sim(1, sync_net());
  sim.emplace_process<StartRecorder>(0);
  EXPECT_THROW(sim.activate(5, 100), std::out_of_range);
  EXPECT_THROW(sim.activate(0, -1), std::invalid_argument);
  sim.activate(0, 100);
  sim.start();
  EXPECT_THROW(sim.activate(0, 100), std::logic_error);
}

TEST(ActivationTest, RunUntilStrideOnlyCoarsensTheCheck) {
  // Same workload, stride 1 vs 64: both find the predicate, the strided
  // run may only overshoot by < stride events.
  auto run = [](std::size_t stride) {
    Simulation sim(2, sync_net());
    auto& t = sim.emplace_process<Ticker>(0, 1);
    sim.emplace_process<Recorder>(1);
    sim.start();
    const bool ok =
        sim.run_until([&] { return t.ticks >= 20; }, 1'000'000, stride);
    EXPECT_TRUE(ok);
    return t.ticks;
  };
  const int exact = run(1);
  const int strided = run(64);
  EXPECT_EQ(exact, 20);
  EXPECT_GE(strided, 20);
  EXPECT_LT(strided, 20 + 64);
}

}  // namespace
}  // namespace scup::sim
