// Outside-in tracing for scup-bench. Nothing here reaches inside src/: the
// tracer wraps what the library already exposes.
//
//  - Timed<Node> subclasses an installed node type and opens a span around
//    each start / on_message / on_timer upcall. The span's layer comes from
//    the message type (MessageTypeRegistry name) or the timer id.
//  - TimedModel decorates the simulation's NetworkModel and opens a span
//    around each on_send verdict. Verdict spans nest inside the upcall span
//    that sent the message.
//  - A binary-wide operator new hook counts heap allocations per thread;
//    each span records the allocations made while it was open.
//
// Spans are fixed-size records kept in memory and folded into per-layer
// totals when the traced simulation ends, and between two upcalls whenever
// the buffer holds kFoldThreshold spans: a buffer that stays in cache keeps
// the tracing overhead low, and memory stays bounded.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/message.hpp"
#include "sim/network_model.hpp"

namespace scup::perf {

/// The layers an upcall or verdict is charged to.
enum class Layer : std::uint8_t {
  kCup,            // cup.discover / cup.certs / cup.known, start, requery
  kSinkDetector,   // cup.get_sink / cup.sink_value
  kScpNominate,    // scp[.slot].nominate
  kScpBallot,      // scp[.slot].{prepare,confirm,externalize}
  kScpTimer,       // ballot timers (one-shot and per ledger slot)
  kPbft,           // pbft.* and the PBFT view timer
  kDissemination,  // bftcup.*
  kNet,            // NetworkModel::on_send
  kOther,          // anything unclassified (the reconciliation wants 0)
  kCount,
};
inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);

/// Metric-name prefix of a layer ("cup", "sd", "scp.nominate", ...).
const char* layer_name(Layer layer);

Layer layer_of_timer(int timer_id);

/// Heap allocations performed by the calling thread since it started.
std::uint64_t thread_allocs();

/// Per-layer totals of one or more traced simulations.
struct LayerTotals {
  std::array<double, kLayerCount> self_s{};
  std::array<std::uint64_t, kLayerCount> allocs{};
  /// Message upcalls charged to each layer (the `<layer>.msgs` metrics).
  std::array<std::uint64_t, kLayerCount> messages{};
  std::uint64_t message_upcalls = 0;  // counted before classification
  std::uint64_t timer_upcalls = 0;
  std::uint64_t unclassified_timers = 0;
  std::uint64_t verdicts = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  /// Summed wall time of top-level spans (everything not in the loop).
  double top_level_s = 0.0;

  void add(const LayerTotals& other);
};

/// Span recorder for one simulation; used from one thread at a time.
class CellTrace {
 public:
  enum class Kind : std::uint8_t { kStart, kMessage, kTimer, kVerdict };

  explicit CellTrace(std::size_t n);

  /// Opens a span and returns its handle for close().
  std::uint32_t open(Layer layer, Kind kind, SimTime tick);
  void close(std::uint32_t span);

  Layer layer_of(const sim::Message& msg);
  void note_verdict(const sim::NetworkModel::Verdict& verdict);
  /// First tick at which process `id`'s sink detector had a result.
  void note_sink(ProcessId id, SimTime tick);

  /// Folds the remaining spans; call once, after the run.
  const LayerTotals& finish();
  const std::vector<SimTime>& sink_ticks() const { return sink_ticks_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Span timestamps are CPU time-stamp-counter ticks where the CPU has one
  /// (half the cost of a steady_clock read, which matters at millions of
  /// spans per run); finish() converts them to seconds against steady_clock
  /// over the trace's lifetime.
  static std::uint64_t stamp();

  struct Span {
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    SimTime tick = 0;
    /// The thread's allocation count while open; the count made inside the
    /// span (children included) once closed.
    std::uint64_t allocs = 0;
    std::uint32_t parent = 0;     // index + 1 of the enclosing span, 0 = none
    Layer layer = Layer::kOther;
  };
  static constexpr std::size_t kFoldThreshold = 4096;

  void fold();

  std::vector<Span> spans_;
  std::uint32_t innermost_ = 0;  // index + 1 of the open innermost span
  std::vector<std::int8_t> layer_by_type_;  // -1 = not yet classified
  std::vector<SimTime> sink_ticks_;
  LayerTotals totals_;
  // Folded time in stamp units, converted to seconds by finish().
  std::array<double, kLayerCount> self_stamps_{};
  double top_level_stamps_ = 0.0;
  Clock::time_point created_ = Clock::now();
  std::uint64_t created_stamp_ = stamp();
};

/// A node type with every upcall wrapped in a span. Behaviour is unchanged:
/// each override only brackets the base implementation.
template <typename Node>
class Timed final : public Node {
 public:
  template <typename... Args>
  explicit Timed(CellTrace& trace, Args&&... args)
      : Node(std::forward<Args>(args)...), trace_(trace) {}

  void start() override {
    const std::uint32_t span =
        trace_.open(Layer::kCup, CellTrace::Kind::kStart, this->now());
    Node::start();
    trace_.close(span);
    observe();
  }

  void on_message(ProcessId from, const sim::MessagePtr& msg) override {
    const std::uint32_t span = trace_.open(
        trace_.layer_of(*msg), CellTrace::Kind::kMessage, this->now());
    Node::on_message(from, msg);
    trace_.close(span);
    observe();
  }

  void on_timer(int timer_id) override {
    const std::uint32_t span = trace_.open(
        layer_of_timer(timer_id), CellTrace::Kind::kTimer, this->now());
    Node::on_timer(timer_id);
    trace_.close(span);
    observe();
  }

 private:
  void observe() {
    if constexpr (requires(const Node& node) { node.sink_detected(); }) {
      if (this->sink_detected()) trace_.note_sink(this->id(), this->now());
    }
  }

  CellTrace& trace_;
};

/// NetworkModel decorator timing each verdict; forwards everything else.
class TimedModel final : public sim::NetworkModel {
 public:
  TimedModel(std::unique_ptr<sim::NetworkModel> inner, CellTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  Verdict on_send(ProcessId from, ProcessId to, SimTime now,
                  StreamRng& rng) override;
  std::uint64_t draws_per_send(SimTime now) const override {
    return inner_->draws_per_send(now);
  }
  SimTime min_latency() const override { return inner_->min_latency(); }
  SimTime min_latency(ProcessId from, ProcessId to) const override {
    return inner_->min_latency(from, to);
  }
  SimTime base_min_latency() const override {
    return inner_->base_min_latency();
  }
  std::vector<LatencyOverride> latency_overrides() const override {
    return inner_->latency_overrides();
  }

 private:
  std::unique_ptr<sim::NetworkModel> inner_;
  CellTrace& trace_;
};

}  // namespace scup::perf
