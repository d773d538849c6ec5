// HDR-style log-linear histogram for values spanning ns to ms.
//
// The fixed-width stats::Histogram is ideal when the bin width equals the
// NIC timestamp granularity (Figure 8), but a latency distribution that
// spans 300 ns of fiber loopback and 2 ms of DuT buffer bloat (Figure 11)
// either wastes memory or loses resolution with fixed bins. The log-linear
// layout keeps a bounded *relative* error instead: values below
// 2^sub_bucket_bits get exact unit-width bins, and every power-of-two range
// above is split into 2^(sub_bucket_bits-1) linear sub-buckets, so any
// recorded value lands in a bucket no wider than value * 2^(1-sub_bucket_bits).
//
// Histograms with identical geometry merge losslessly, which is what makes
// per-shard metric trees and cross-run aggregation work.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <vector>

namespace moongen::telemetry {

struct HistogramConfig {
  /// Buckets per power-of-two range; relative error <= 2^(1-sub_bucket_bits)
  /// (default 1/16 = 6.25 %).
  unsigned sub_bucket_bits = 5;
  /// Values >= max_value are accumulated in a final overflow bin.
  std::uint64_t max_value = 10'000'000'000ull;  // 10 s in ns
};

class LogLinearHistogram {
 public:
  explicit LogLinearHistogram(HistogramConfig config = {});

  void record(std::uint64_t value, std::uint64_t count = 1);

  [[nodiscard]] const HistogramConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return total_ > 0 ? sum_ / static_cast<double>(total_) : 0.0; }
  [[nodiscard]] std::uint64_t min() const { return total_ > 0 ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const { return total_ > 0 ? max_ : 0; }

  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const { return buckets_[i]; }

  /// Bucket index containing `value` (values >= max_value are clamped into
  /// the last bucket; the overflow bin is separate).
  [[nodiscard]] std::size_t index_for(std::uint64_t value) const;
  /// Lowest value mapping into bucket i.
  [[nodiscard]] std::uint64_t bucket_lower(std::size_t i) const;
  /// Width of bucket i in value units.
  [[nodiscard]] std::uint64_t bucket_width(std::size_t i) const;

  /// p in [0, 100]; lower edge of the bucket holding the p-th percentile
  /// sample (same contract as stats::Histogram::percentile; overflow counts
  /// as max_value).
  [[nodiscard]] std::uint64_t percentile(double p) const;
  [[nodiscard]] std::uint64_t median() const { return percentile(50.0); }

  /// Prints "lower_edge count fraction%" rows for all non-empty buckets —
  /// the stats::Histogram::print contract.
  void print(std::ostream& os, double min_fraction = 0.0) const;

  /// Merges a histogram with identical geometry; throws
  /// std::invalid_argument on mismatching sub_bucket_bits or max_value.
  void merge(const LogLinearHistogram& other);

  /// Clears every bucket and statistic, keeping the geometry (and the
  /// bucket storage — no allocation). Windowed histograms (RttPlane) reset
  /// in place between windows.
  void reset() {
    std::fill(buckets_.begin(), buckets_.end(), 0);
    total_ = 0;
    overflow_ = 0;
    sum_ = 0.0;
    min_ = UINT64_MAX;
    max_ = 0;
  }

 private:
  HistogramConfig cfg_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
  std::uint64_t overflow_ = 0;
  double sum_ = 0.0;
  std::uint64_t min_ = UINT64_MAX;
  std::uint64_t max_ = 0;
};

}  // namespace moongen::telemetry
