#include "sim/network_model.hpp"

#include <algorithm>
#include <stdexcept>

namespace scup::sim {

UniformModel::UniformModel(const NetworkConfig& config) : config_(config) {
  if (config_.min_delay < 0 || config_.max_delay < config_.min_delay ||
      config_.pre_gst_max_delay < config_.min_delay) {
    throw std::invalid_argument("UniformModel: inconsistent delay bounds");
  }
  if (config_.pre_gst_drop < 0.0 || config_.pre_gst_drop > 1.0 ||
      config_.pre_gst_duplicate < 0.0 || config_.pre_gst_duplicate > 1.0) {
    throw std::invalid_argument("UniformModel: probability outside [0, 1]");
  }
  for (const LinkOverride& o : config_.link_overrides) {
    if (o.min_delay < 0 || o.max_delay < o.min_delay) {
      throw std::invalid_argument("UniformModel: bad link override bounds");
    }
    overrides_.emplace(std::make_pair(o.from, o.to),
                       std::make_pair(o.min_delay, o.max_delay));
  }
  for (const PartitionWindow& w : config_.partitions) {
    if (w.heal < w.start) {
      throw std::invalid_argument("UniformModel: partition heals before it "
                                  "starts");
    }
  }
}

std::pair<SimTime, SimTime> UniformModel::bounds(ProcessId from, ProcessId to,
                                                 SimTime now) const {
  if (!overrides_.empty()) {
    const auto it = overrides_.find({from, to});
    if (it != overrides_.end()) return it->second;
  }
  const SimTime hi =
      now < config_.gst ? config_.pre_gst_max_delay : config_.max_delay;
  return {config_.min_delay, hi};
}

SimTime UniformModel::crossing_heal(ProcessId from, ProcessId to,
                                    SimTime now) const {
  SimTime heal = -1;
  for (const PartitionWindow& w : config_.partitions) {
    if (now < w.start || now >= w.heal) continue;
    if (w.side.contains(from) != w.side.contains(to)) {
      heal = std::max(heal, w.heal);
    }
  }
  return heal;
}

NetworkModel::Verdict UniformModel::on_send(ProcessId from, ProcessId to,
                                            SimTime now, StreamRng& rng) {
  const auto [lo, hi] = bounds(from, to, now);
  const SimTime delay = rng.uniform_range(lo, hi);

  Verdict v;
  v.deliver_at = now + delay;
  // A cut link defers the message to the heal: it waits at the partition
  // edge and then travels with the delay it already sampled.
  SimTime heal = -1;
  if (!config_.partitions.empty()) {
    heal = crossing_heal(from, to, now);
    if (heal >= 0) v.deliver_at = heal + delay;
  }
  // Every enabled pre-GST feature consumes its draws unconditionally, even
  // when an earlier draw already decided the verdict: every seeded
  // expectation (golden pins, benchmark counts) depends on this sequence.
  const bool pre_gst = now < config_.gst;
  if (pre_gst && config_.pre_gst_drop > 0.0) {
    v.dropped = rng.chance(config_.pre_gst_drop);
  }
  if (pre_gst && config_.pre_gst_duplicate > 0.0) {
    const bool duplicated = rng.chance(config_.pre_gst_duplicate);
    const SimTime dup_delay = rng.uniform_range(lo, hi);
    if (duplicated && !v.dropped) {
      v.duplicated = true;
      v.duplicate_at = (heal >= 0 ? heal : now) + dup_delay;
    }
  }
  return v;
}

}  // namespace scup::sim
