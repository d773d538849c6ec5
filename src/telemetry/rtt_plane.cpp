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

  // Publish cumulative totals into the bound metric tree (delta adds keep
  // the counters monotonic; we run quiesced, so sums are exact).
  const RttWindow& closed = windows_.back();
  tm_hist_.merge(overall);
  tm_recorded_.add(recorded() - tm_recorded_published_);
  tm_recorded_published_ = recorded();
  tm_tx_stamped_.add(tx_stamped() - tm_tx_stamped_published_);
  tm_tx_stamped_published_ = tx_stamped();
  tm_rx_seen_.add(rx_seen() - tm_rx_seen_published_);
  tm_rx_seen_published_ = rx_seen();
  tm_dropped_.add(dropped_now - tm_dropped_published_);
  tm_dropped_published_ = dropped_now;
  tm_windows_.add(1);
  tm_p50_.set(static_cast<double>(closed.p50));
  tm_p99_.set(static_cast<double>(closed.p99));
  tm_p999_.set(static_cast<double>(closed.p999));
  tm_in_flight_.set(static_cast<double>(in_flight()));
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

void RttPlane::bind_telemetry(MetricTree& tree, const std::string& prefix) {
  if (tm_recorded_.valid()) return;  // already bound
  tm_recorded_ = tree.counter(prefix + ".recorded");
  tm_tx_stamped_ = tree.counter(prefix + ".tx_stamped");
  tm_rx_seen_ = tree.counter(prefix + ".rx_seen");
  tm_dropped_ = tree.counter(prefix + ".dropped");
  tm_windows_ = tree.counter(prefix + ".windows");
  tm_p50_ = tree.gauge(prefix + ".p50_ns");
  tm_p99_ = tree.gauge(prefix + ".p99_ns");
  tm_p999_ = tree.gauge(prefix + ".p999_ns");
  tm_in_flight_ = tree.gauge(prefix + ".in_flight");
  tm_hist_ = tree.histogram(prefix + ".rtt_ns", kHistogram);
  // Seed with any history recorded before binding (mirrors the component
  // bind_telemetry convention), so books stay exact.
  tm_hist_.merge(cumulative());
  tm_recorded_published_ = recorded();
  tm_recorded_.add(tm_recorded_published_);
  tm_tx_stamped_published_ = tx_stamped();
  tm_tx_stamped_.add(tm_tx_stamped_published_);
  tm_rx_seen_published_ = rx_seen();
  tm_rx_seen_.add(tm_rx_seen_published_);
  tm_dropped_published_ = dropped();
  tm_dropped_.add(tm_dropped_published_);
  tm_windows_.add(windows_closed_);
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
