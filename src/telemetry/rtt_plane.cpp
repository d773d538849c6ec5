#include "telemetry/rtt_plane.hpp"

namespace moongen::telemetry {

namespace {

/// Geometry of every histogram on the plane (values in nanoseconds).
constexpr HistogramConfig kHistogram{};

std::uint32_t round_up_pow2(std::uint32_t v) {
  if (v <= 1) return 1;
  std::uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

RttShard::RttShard(std::uint32_t flow_groups_pow2, HistogramConfig cfg)
    : mask_(flow_groups_pow2 - 1) {
  groups_.reserve(flow_groups_pow2);
  for (std::uint32_t i = 0; i < flow_groups_pow2; ++i) groups_.emplace_back(cfg);
}

RttPlane::RttPlane(RttPlaneConfig cfg, std::size_t shard_count) : cfg_(cfg) {
  group_count_ = round_up_pow2(cfg_.flow_groups);
  cfg_.flow_groups = group_count_;
  if (shard_count == 0) shard_count = 1;
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i)
    shards_.push_back(std::make_unique<RttShard>(group_count_, kHistogram));
}

void RttPlane::close_window(std::uint64_t end_ps) {
  RttWindow w;
  w.start_ps = last_window_end_ps_;
  w.end_ps = end_ps;
  w.groups.resize(group_count_);

  LogLinearHistogram overall(kHistogram);
  LogLinearHistogram merged(kHistogram);
  for (std::uint32_t g = 0; g < group_count_; ++g) {
    merged.reset();
    // Shard-index order; merge is bucket-wise addition, so the result does
    // not depend on how frames were spread across shards.
    for (const auto& shard : shards_) merged.merge(shard->groups_[g].window);
    overall.merge(merged);
    w.groups[g] = {merged.total(), merged.percentile(50.0), merged.percentile(99.0),
                   merged.percentile(99.9)};
  }
  w.count = overall.total();
  w.min_ns = overall.min();
  w.max_ns = overall.max();
  w.p50 = overall.percentile(50.0);
  w.p99 = overall.percentile(99.0);
  w.p999 = overall.percentile(99.9);
  const std::uint64_t dropped_now = dropped();
  w.dropped = dropped_now - last_dropped_;
  last_dropped_ = dropped_now;

  for (auto& shard : shards_)
    for (auto& group : shard->groups_) group.window.reset();

  last_window_end_ps_ = end_ps;
  ++windows_closed_;
  windows_.push_back(std::move(w));
  if (windows_.size() > RttPlaneConfig::kMaxWindows) {
    windows_.pop_front();
    ++windows_evicted_;
  }
}

LogLinearHistogram RttPlane::cumulative() const {
  LogLinearHistogram out(kHistogram);
  for (const auto& shard : shards_)
    for (const auto& group : shard->groups_) out.merge(group.cumulative);
  return out;
}

LogLinearHistogram RttPlane::cumulative_group(std::uint32_t group) const {
  LogLinearHistogram out(kHistogram);
  for (const auto& shard : shards_) out.merge(shard->groups_[group & (group_count_ - 1)].cumulative);
  return out;
}

std::uint64_t RttPlane::recorded() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->recorded_;
  return n;
}

std::uint64_t RttPlane::tx_stamped() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->tx_stamped_;
  return n;
}

std::uint64_t RttPlane::tx_forwarded() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->tx_forwarded_;
  return n;
}

std::uint64_t RttPlane::duplicated() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->duplicated_;
  return n;
}

std::uint64_t RttPlane::dropped() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->dropped_;
  return n;
}

std::uint64_t RttPlane::rx_seen() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->rx_seen_;
  return n;
}

std::int64_t RttPlane::in_flight() const {
  const std::uint64_t births = tx_stamped() + tx_forwarded() + duplicated();
  const std::uint64_t deaths = rx_seen() + dropped();
  return static_cast<std::int64_t>(births) - static_cast<std::int64_t>(deaths);
}

void RttPlane::bind_telemetry(MetricRegistry& registry, const std::string& prefix) {
  telemetry_.open(registry);
  telemetry_.counter(prefix + ".recorded", [this] { return recorded(); });
  telemetry_.counter(prefix + ".tx_stamped", [this] { return tx_stamped(); });
  telemetry_.counter(prefix + ".rx_seen", [this] { return rx_seen(); });
  telemetry_.counter(prefix + ".dropped", [this] { return dropped(); });
  telemetry_.counter(prefix + ".windows", [this] { return windows_closed_; });
  telemetry_.gauge(prefix + ".p50_ns", [this] {
    return windows_.empty() ? 0.0 : static_cast<double>(windows_.back().p50);
  });
  telemetry_.gauge(prefix + ".p99_ns", [this] {
    return windows_.empty() ? 0.0 : static_cast<double>(windows_.back().p99);
  });
  telemetry_.gauge(prefix + ".p999_ns", [this] {
    return windows_.empty() ? 0.0 : static_cast<double>(windows_.back().p999);
  });
  telemetry_.gauge(prefix + ".in_flight", [this] { return static_cast<double>(in_flight()); });
  telemetry_.histogram(prefix + ".rtt_ns", [this] { return cumulative(); });
}

void RttPlane::write_window_json(std::ostream& os, const RttWindow& w) {
  os << "{\"schema\":\"moongen-rtt-window-v1\",\"start_ps\":" << w.start_ps
     << ",\"end_ps\":" << w.end_ps << ",\"count\":" << w.count << ",\"dropped\":" << w.dropped
     << ",\"min_ns\":" << w.min_ns << ",\"max_ns\":" << w.max_ns << ",\"p50\":" << w.p50
     << ",\"p99\":" << w.p99 << ",\"p999\":" << w.p999 << ",\"groups\":[";
  for (std::size_t g = 0; g < w.groups.size(); ++g) {
    if (g > 0) os << ',';
    os << "{\"count\":" << w.groups[g].count << ",\"p50\":" << w.groups[g].p50
       << ",\"p99\":" << w.groups[g].p99 << ",\"p999\":" << w.groups[g].p999 << '}';
  }
  os << "]}\n";
}

}  // namespace moongen::telemetry
