#include "trace.hpp"

#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string_view>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "bftcup/pbft.hpp"
#include "cup/sink_discovery.hpp"
#include "scp/ledger.hpp"
#include "scp/scp_node.hpp"

// ---- heap allocation meter --------------------------------------------------
// Replacing the global operator new in one translation unit rebinds every
// heap allocation of the binary, library included. The count is per thread
// so concurrent cells of the paper-sweep workload do not share a counter.
namespace {
thread_local std::uint64_t tl_allocs = 0;

void* counted_alloc(std::size_t size) {
  ++tl_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace scup::perf {

std::uint64_t thread_allocs() { return tl_allocs; }

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kCup: return "cup";
    case Layer::kSinkDetector: return "sd";
    case Layer::kScpNominate: return "scp.nominate";
    case Layer::kScpBallot: return "scp.ballot";
    case Layer::kScpTimer: return "scp.timer";
    case Layer::kPbft: return "pbft";
    case Layer::kDissemination: return "dissem";
    case Layer::kNet: return "net";
    case Layer::kOther:
    case Layer::kCount: break;
  }
  return "other";
}

Layer layer_of_timer(int timer_id) {
  if (timer_id == scp::kScpBallotTimerId || timer_id >= scp::kLedgerTimerBase) {
    return Layer::kScpTimer;
  }
  if (timer_id == bftcup::kPbftTimerId) return Layer::kPbft;
  if (timer_id == cup::kDiscoveryRequeryTimerId) return Layer::kCup;
  return Layer::kOther;
}

void LayerTotals::add(const LayerTotals& other) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    self_s[i] += other.self_s[i];
    allocs[i] += other.allocs[i];
    messages[i] += other.messages[i];
  }
  message_upcalls += other.message_upcalls;
  timer_upcalls += other.timer_upcalls;
  unclassified_timers += other.unclassified_timers;
  verdicts += other.verdicts;
  dropped += other.dropped;
  duplicated += other.duplicated;
  top_level_s += other.top_level_s;
}

std::uint64_t CellTrace::stamp() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(Clock::now().time_since_epoch().count());
#endif
}

CellTrace::CellTrace(std::size_t n) : sink_ticks_(n, kTimeInfinity) {
  spans_.reserve(2 * kFoldThreshold);
}

std::uint32_t CellTrace::open(Layer layer, Kind kind, SimTime tick) {
  const auto index = static_cast<std::size_t>(layer);
  switch (kind) {
    case Kind::kMessage:
      totals_.message_upcalls += 1;
      totals_.messages[index] += 1;
      break;
    case Kind::kTimer:
      totals_.timer_upcalls += 1;
      if (layer == Layer::kOther) totals_.unclassified_timers += 1;
      break;
    case Kind::kVerdict:
      totals_.verdicts += 1;
      break;
    case Kind::kStart:
      break;
  }
  Span& span = spans_.emplace_back();
  span.tick = tick;
  span.parent = innermost_;
  span.layer = layer;
  innermost_ = static_cast<std::uint32_t>(spans_.size());
  // Read last, so the span excludes its own bookkeeping (buffer growth
  // included).
  span.allocs = tl_allocs;
  span.start = stamp();
  return innermost_;
}

void CellTrace::close(std::uint32_t span) {
  const std::uint64_t end = stamp();
  if (span != innermost_) {
    throw std::logic_error("CellTrace::close: spans must nest");
  }
  Span& s = spans_[span - 1];
  s.end = end;
  s.allocs = tl_allocs - s.allocs;
  innermost_ = s.parent;
  if (innermost_ == 0 && spans_.size() >= kFoldThreshold) fold();
}

namespace {
Layer layer_of_type_name(const std::string& type_name) {
  const std::string_view name(type_name);
  if (name == "cup.discover" || name == "cup.certs" || name == "cup.known") {
    return Layer::kCup;
  }
  if (name == "cup.get_sink" || name == "cup.sink_value") {
    return Layer::kSinkDetector;
  }
  if (name.starts_with("scp.")) {
    std::string_view kind = name.substr(4);
    if (kind.starts_with("slot.")) kind.remove_prefix(5);
    if (kind == "nominate") return Layer::kScpNominate;
    if (kind == "prepare" || kind == "confirm" || kind == "externalize") {
      return Layer::kScpBallot;
    }
    return Layer::kOther;
  }
  if (name.starts_with("pbft.")) return Layer::kPbft;
  if (name.starts_with("bftcup.")) return Layer::kDissemination;
  return Layer::kOther;
}
}  // namespace

Layer CellTrace::layer_of(const sim::Message& msg) {
  const std::uint32_t id = msg.metrics_type_id();
  if (id >= layer_by_type_.size()) layer_by_type_.resize(id + 1, -1);
  if (layer_by_type_[id] < 0) {
    layer_by_type_[id] = static_cast<std::int8_t>(
        layer_of_type_name(sim::MessageTypeRegistry::name_of(id)));
  }
  return static_cast<Layer>(layer_by_type_[id]);
}

void CellTrace::note_verdict(const sim::NetworkModel::Verdict& verdict) {
  if (verdict.dropped) totals_.dropped += 1;
  if (verdict.duplicated) totals_.duplicated += 1;
}

void CellTrace::note_sink(ProcessId id, SimTime tick) {
  if (sink_ticks_[id] == kTimeInfinity) sink_ticks_[id] = tick;
}

void CellTrace::fold() {
  // Self time and self allocations: a span's own totals minus those of its
  // direct children. Children follow their parent in the buffer.
  for (const Span& s : spans_) {
    const auto duration = static_cast<double>(s.end - s.start);
    const auto layer = static_cast<std::size_t>(s.layer);
    self_stamps_[layer] += duration;
    totals_.allocs[layer] += s.allocs;
    if (s.parent == 0) {
      top_level_stamps_ += duration;
    } else {
      const auto parent = static_cast<std::size_t>(spans_[s.parent - 1].layer);
      self_stamps_[parent] -= duration;
      totals_.allocs[parent] -= s.allocs;
    }
  }
  spans_.clear();
}

const LayerTotals& CellTrace::finish() {
  if (innermost_ != 0) throw std::logic_error("CellTrace::finish: open span");
  fold();
  const double lifetime_s =
      std::chrono::duration<double>(Clock::now() - created_).count();
  const std::uint64_t lifetime_stamps = stamp() - created_stamp_;
  const double seconds_per_stamp =
      lifetime_stamps == 0 ? 0.0
                           : lifetime_s / static_cast<double>(lifetime_stamps);
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    totals_.self_s[l] = self_stamps_[l] * seconds_per_stamp;
  }
  totals_.top_level_s = top_level_stamps_ * seconds_per_stamp;
  return totals_;
}

sim::NetworkModel::Verdict TimedModel::on_send(ProcessId from, ProcessId to,
                                               SimTime now, StreamRng& rng) {
  const std::uint32_t span =
      trace_.open(Layer::kNet, CellTrace::Kind::kVerdict, now);
  const Verdict verdict = inner_->on_send(from, to, now, rng);
  trace_.close(span);
  trace_.note_verdict(verdict);
  return verdict;
}

}  // namespace scup::perf
