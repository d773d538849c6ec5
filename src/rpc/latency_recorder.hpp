// Latency aggregation for the RPC plane: p50/p99/p999 plus moments.
//
// Wraps one telemetry::LogLinearHistogram (bounded relative error across
// the ns..s span tail latencies cover) and one stats::RunningStats (exact
// mean/stddev/min/max). Both sides merge losslessly, so per-shard or
// per-pair recorders roll up into one distribution — the merge path the
// open-vs-closed studies use to report a single percentile line across
// client pairs.
#pragma once

#include <cstdint>

#include "sim/time.hpp"
#include "stats/running_stats.hpp"
#include "telemetry/log_linear_histogram.hpp"

namespace moongen::rpc {

class LatencyRecorder {
 public:
  explicit LatencyRecorder(telemetry::HistogramConfig config = {}) : hist_(config) {}

  /// Records one round-trip latency (histogram granularity is ns).
  void record_ps(sim::SimTime latency_ps) {
    const std::uint64_t ns = (latency_ps + 500) / 1000;
    hist_.record(ns);
    running_.add(static_cast<double>(ns));
  }

  [[nodiscard]] std::uint64_t count() const { return hist_.total(); }
  [[nodiscard]] std::uint64_t p50_ns() const { return hist_.percentile(50.0); }
  [[nodiscard]] std::uint64_t p99_ns() const { return hist_.percentile(99.0); }
  [[nodiscard]] std::uint64_t p999_ns() const { return hist_.percentile(99.9); }
  [[nodiscard]] std::uint64_t min_ns() const { return hist_.min(); }
  [[nodiscard]] std::uint64_t max_ns() const { return hist_.max(); }
  [[nodiscard]] double mean_ns() const { return running_.mean(); }
  [[nodiscard]] double stddev_ns() const { return running_.stddev(); }

  [[nodiscard]] const telemetry::LogLinearHistogram& histogram() const { return hist_; }
  [[nodiscard]] const stats::RunningStats& running() const { return running_; }

  /// Merges another recorder (same histogram geometry required).
  void merge(const LatencyRecorder& other) {
    hist_.merge(other.hist_);
    running_.merge(other.running_);
  }

 private:
  telemetry::LogLinearHistogram hist_;
  stats::RunningStats running_;
};

}  // namespace moongen::rpc
