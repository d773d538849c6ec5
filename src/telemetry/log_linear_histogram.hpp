// HDR-style log-linear histogram: the one histogram type of the simulator.
//
// Values are divided by `unit`, the width of the finest bucket, before
// bucketing. Below 2^sub_bucket_bits units every bucket is one unit wide;
// every power-of-two range above is split into 2^(sub_bucket_bits-1)
// linear sub-buckets, so any recorded value lands in a bucket no wider
// than value * 2^(1-sub_bucket_bits). That bounded *relative* error fits a
// latency distribution spanning 300 ns of fiber loopback and 2 ms of DuT
// buffer bloat (Figure 11) in a few hundred buckets.
//
// HistogramConfig::linear(bin, max) picks the geometry whose buckets are
// all `bin` wide up to `max`: the fixed bins of a NIC's timestamp
// granularity (64 ns on the 82580 behind Figure 8, 6.4 ns on the 10 GbE
// NICs of the latency plots).
//
// Histograms with identical geometry merge losslessly, which is what lets
// the RTT plane merge its shards and the metric registry merge several
// readers of one name.
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
  /// Width of the finest bucket; values are divided by it before bucketing.
  std::uint64_t unit = 1;

  /// Buckets all `bin` wide covering [0, max]; the overflow bin starts at
  /// the first bin edge above `max`. Throws std::invalid_argument if `bin`
  /// is 0.
  static HistogramConfig linear(std::uint64_t bin, std::uint64_t max);

  bool operator==(const HistogramConfig&) const = default;
};

class LogLinearHistogram {
 public:
  /// Geometries needing more buckets than this are rejected, not allocated.
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;

  /// Throws std::invalid_argument on a malformed config or one needing more
  /// than kMaxBuckets buckets.
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
  /// sample (overflow counts as max_value).
  [[nodiscard]] std::uint64_t percentile(double p) const;
  [[nodiscard]] std::uint64_t median() const { return percentile(50.0); }

  /// Fraction of samples in the buckets holding [lo, hi]; the overflow bin
  /// counts when hi >= max_value.
  [[nodiscard]] double fraction_between(std::uint64_t lo, std::uint64_t hi) const;

  /// Prints "lower_edge count fraction%" rows for all non-empty buckets
  /// with at least `min_fraction` of the samples, then the overflow count.
  void print(std::ostream& os, double min_fraction = 0.0) const;

  /// Merges a histogram with identical geometry; throws
  /// std::invalid_argument (leaving this one untouched) otherwise.
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
  /// index_for without the clamp: `value` must be below max_value.
  [[nodiscard]] std::size_t bucket_of(std::uint64_t value) const;

  HistogramConfig cfg_;
  // unit != 1. A flag, not a test of unit, so that the compiler keeps the
  // branch: the RTT plane records every stamped frame with unit 1, and a
  // 64-bit divide costs it ~10 cycles per frame.
  bool divide_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
  std::uint64_t overflow_ = 0;
  double sum_ = 0.0;
  std::uint64_t min_ = UINT64_MAX;
  std::uint64_t max_ = 0;
};

}  // namespace moongen::telemetry
