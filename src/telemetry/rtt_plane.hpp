// Always-on in-path RTT plane: gap-free latency histograms on the RX path.
//
// MoonGen's Timestamper measures latency by *sampling*: one PTP-stamped
// packet in flight at a time, a few thousand samples per run. That leaves
// blind spots — a microburst between samples is invisible, and lost
// samples silently shrink the population (coordinated omission). The
// histogram-based P4TG follow-up shows the alternative this plane
// implements: every timestamp-capable frame carries its departure time
// (the same payload-stamp trick the RPC codec uses), the receive path
// folds `arrival - departure` into a per-flow-group log-linear histogram
// with zero allocation, and quantiles are published per *window* — p50 /
// p99 / p999 every 100 ms of virtual time, not just at end of run.
//
// Sharding & determinism: each simulation shard owns one RttShard
// (single-writer, plain counters — the shard thread is the only writer;
// readers run at quiesced window boundaries, ordered by the ParallelRuntime
// barrier). At each window boundary a ParallelRuntime window hook calls
// RttPlane::close_window, which merges the shards' window histograms in
// shard-index order. Histogram merge is commutative addition over
// identical geometry, and the set of frames recorded does not depend on
// where their ports live — so the closed windows (and everything printed
// from them) are byte-identical across `--shards 1/2/4`.
//
// Conservation: a stamped frame must end in exactly one place. The plane
// counts every stamp birth (tx_stamped / tx_forwarded / duplicated) and
// every death (rx_seen / dropped); health::make_rtt_checker asserts the
// difference — the in-flight count — never goes negative, and that the
// histogram population equals the recorded count. Lost stamps therefore
// count as drops instead of silently shrinking the population, which is
// exactly the disagreement the sampled Timestamper path had under
// fault-plane loss.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "telemetry/log_linear_histogram.hpp"
#include "telemetry/registry.hpp"

namespace moongen::telemetry {

struct RttPlaneConfig {
  /// Retained closed windows; older ones are evicted (a week-long soak at
  /// 100 ms windows would otherwise hold ~6 million windows).
  static constexpr std::size_t kMaxWindows = 8192;

  /// Flow groups per shard (rounded up to a power of two, >= 1). A frame's
  /// `flow` label indexes its group modulo this count.
  std::uint32_t flow_groups = 1;
  /// Window length in picoseconds of virtual time (default 100 ms — the
  /// sampling cadence of the fig10/fig11 experiments).
  std::uint64_t window_ps = 100'000'000'000ull;
};

/// Quantiles of one flow group over one window (ns, bucket lower edges).
struct RttWindowGroup {
  std::uint64_t count = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;
};

/// One closed window: merged across shards, per-group and overall.
struct RttWindow {
  std::uint64_t start_ps = 0;
  std::uint64_t end_ps = 0;
  std::uint64_t count = 0;    ///< RTT samples recorded in this window
  std::uint64_t dropped = 0;  ///< stamped frames lost in this window
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;
  std::vector<RttWindowGroup> groups;
};

/// One simulation shard's slice of the plane. Single-writer: only the
/// owning shard's thread calls the mutators; RttPlane reads at quiesced
/// window boundaries. All storage is preallocated — record() allocates
/// nothing and touches no lock, no atomic.
class RttShard {
 public:
  RttShard(std::uint32_t flow_groups_pow2, HistogramConfig cfg);
  RttShard(const RttShard&) = delete;
  RttShard& operator=(const RttShard&) = delete;

  /// Folds one RTT observation (ns) into flow group `flow & mask`.
  void record(std::uint32_t flow, std::uint64_t rtt_ns) {
    Group& g = groups_[flow & mask_];
    g.window.record(rtt_ns);
    g.cumulative.record(rtt_ns);
    ++recorded_;
  }
  /// Same, with a picosecond RTT (rounded to the nearest ns).
  void record_ps(std::uint32_t flow, std::uint64_t rtt_ps) {
    record(flow, (rtt_ps + 500) / 1000);
  }

  // Conservation bookkeeping (see file header). Same single-writer rule.
  void note_tx_stamped() { ++tx_stamped_; }     ///< fresh departure stamp applied
  void note_tx_forwarded() { ++tx_forwarded_; } ///< already-stamped frame re-transmitted
  void note_duplicated() { ++duplicated_; }     ///< wire duplicated a stamped frame
  void note_dropped() { ++dropped_; }           ///< stamped frame died (wire or NIC)
  void note_rx_seen() { ++rx_seen_; }           ///< stamped frame accepted at an RX path

  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  [[nodiscard]] std::uint64_t tx_stamped() const { return tx_stamped_; }
  [[nodiscard]] std::uint64_t tx_forwarded() const { return tx_forwarded_; }
  [[nodiscard]] std::uint64_t duplicated() const { return duplicated_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t rx_seen() const { return rx_seen_; }

  [[nodiscard]] std::uint32_t group_count() const { return mask_ + 1; }

 private:
  friend class RttPlane;

  struct Group {
    LogLinearHistogram window;
    LogLinearHistogram cumulative;
    explicit Group(HistogramConfig cfg) : window(cfg), cumulative(cfg) {}
  };

  std::vector<Group> groups_;
  std::uint32_t mask_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t tx_stamped_ = 0;
  std::uint64_t tx_forwarded_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t rx_seen_ = 0;
};

class RttPlane {
 public:
  RttPlane(RttPlaneConfig cfg, std::size_t shard_count);
  RttPlane(const RttPlane&) = delete;
  RttPlane& operator=(const RttPlane&) = delete;

  [[nodiscard]] const RttPlaneConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint32_t group_count() const { return group_count_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] RttShard& shard(std::size_t i) { return *shards_.at(i); }

  /// Closes the window ending at `end_ps`: merges every shard's window
  /// histograms (shard-index order — commutative, so shard-count
  /// invariant), computes per-group and overall p50/p99/p999 and resets
  /// the window histograms in place. Must run at a quiesced instant (it is
  /// wired as a ParallelRuntime window hook).
  void close_window(std::uint64_t end_ps);

  [[nodiscard]] const std::deque<RttWindow>& windows() const { return windows_; }
  [[nodiscard]] std::uint64_t windows_closed() const { return windows_closed_; }
  [[nodiscard]] std::uint64_t windows_evicted() const { return windows_evicted_; }
  [[nodiscard]] const RttWindow* latest_window() const {
    return windows_.empty() ? nullptr : &windows_.back();
  }

  /// Cumulative merged histogram across all shards and groups (quiesced).
  [[nodiscard]] LogLinearHistogram cumulative() const;
  [[nodiscard]] LogLinearHistogram cumulative_group(std::uint32_t group) const;

  // Cross-shard conservation sums (exact at quiesced instants).
  [[nodiscard]] std::uint64_t recorded() const;
  [[nodiscard]] std::uint64_t tx_stamped() const;
  [[nodiscard]] std::uint64_t tx_forwarded() const;
  [[nodiscard]] std::uint64_t duplicated() const;
  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] std::uint64_t rx_seen() const;
  /// Stamp births minus deaths: (tx_stamped + tx_forwarded + duplicated) -
  /// (rx_seen + dropped). Negative means double counting — the invariant
  /// health::make_rtt_checker asserts.
  [[nodiscard]] std::int64_t in_flight() const;

  /// Exports the plane's totals as they stand at each snapshot:
  /// `<prefix>.recorded`, `.tx_stamped`, `.rx_seen`, `.dropped` and
  /// `.windows` counters, the `.in_flight` gauge and the cumulative
  /// `<prefix>.rtt_ns` histogram; the `.p50_ns/.p99_ns/.p999_ns` gauges
  /// read the latest closed window (0 before the first close).
  void bind_telemetry(MetricRegistry& registry, const std::string& prefix = "rtt");

  /// One window as a deterministic single-line JSON object (schema
  /// "moongen-rtt-window-v1") — the streaming exporter and the window-merge
  /// determinism test both serialize through here.
  static void write_window_json(std::ostream& os, const RttWindow& w);

 private:
  RttPlaneConfig cfg_;
  std::uint32_t group_count_ = 1;
  std::vector<std::unique_ptr<RttShard>> shards_;
  std::deque<RttWindow> windows_;
  std::uint64_t last_window_end_ps_ = 0;
  std::uint64_t windows_closed_ = 0;
  std::uint64_t windows_evicted_ = 0;
  std::uint64_t last_dropped_ = 0;
  Binding telemetry_;
};

}  // namespace moongen::telemetry
