#include "telemetry/log_linear_histogram.hpp"

#include <algorithm>
#include <bit>
#include <iomanip>
#include <stdexcept>
#include <string>

namespace moongen::telemetry {

HistogramConfig HistogramConfig::linear(std::uint64_t bin, std::uint64_t max) {
  if (bin == 0) throw std::invalid_argument("HistogramConfig::linear: bin width must be > 0");
  // 2^sub_bucket_bits > max / bin: every bucket lies in the unit-width range.
  const std::uint64_t last = max / bin;
  return {.sub_bucket_bits = std::max(1u, static_cast<unsigned>(std::bit_width(last))),
          .max_value = (last + 1) * bin,
          .unit = bin};
}

LogLinearHistogram::LogLinearHistogram(HistogramConfig config)
    : cfg_(config), divide_(config.unit != 1) {
  if (cfg_.sub_bucket_bits < 1 || cfg_.sub_bucket_bits > 63 || cfg_.max_value == 0 ||
      cfg_.unit == 0)
    throw std::invalid_argument(
        "LogLinearHistogram: need sub_bucket_bits in [1, 63], max_value > 0 and unit > 0");
  const std::size_t count = index_for(cfg_.max_value - 1) + 1;
  if (count > kMaxBuckets)
    throw std::invalid_argument("LogLinearHistogram: bin width " + std::to_string(cfg_.unit) +
                                " up to " + std::to_string(cfg_.max_value) + " needs " +
                                std::to_string(count) + " buckets (limit " +
                                std::to_string(kMaxBuckets) + ")");
  buckets_.resize(count, 0);
}

std::size_t LogLinearHistogram::index_for(std::uint64_t value) const {
  return bucket_of(std::min(value, cfg_.max_value - 1));
}

std::size_t LogLinearHistogram::bucket_of(std::uint64_t value) const {
  if (divide_) value /= cfg_.unit;
  const std::uint64_t sub_count = 1ull << cfg_.sub_bucket_bits;
  if (value < sub_count) return static_cast<std::size_t>(value);
  // value has bit_width e + sub_bucket_bits for some e >= 1; shifting by e
  // places it into [sub_count/2, sub_count): one of sub_count/2 linear
  // sub-buckets of width 2^e within that power-of-two range.
  const unsigned e = static_cast<unsigned>(std::bit_width(value)) - cfg_.sub_bucket_bits;
  const std::uint64_t sub = (value >> e) - sub_count / 2;
  return static_cast<std::size_t>(sub_count + (e - 1) * (sub_count / 2) + sub);
}

std::uint64_t LogLinearHistogram::bucket_lower(std::size_t i) const {
  const std::uint64_t sub_count = 1ull << cfg_.sub_bucket_bits;
  if (i < sub_count) return i * cfg_.unit;
  const std::uint64_t off = i - sub_count;
  const unsigned e = static_cast<unsigned>(off / (sub_count / 2)) + 1;
  const std::uint64_t sub = off % (sub_count / 2);
  return ((sub + sub_count / 2) << e) * cfg_.unit;
}

std::uint64_t LogLinearHistogram::bucket_width(std::size_t i) const {
  const std::uint64_t sub_count = 1ull << cfg_.sub_bucket_bits;
  if (i < sub_count) return cfg_.unit;
  const unsigned e = static_cast<unsigned>((i - sub_count) / (sub_count / 2)) + 1;
  return cfg_.unit << e;
}

void LogLinearHistogram::record(std::uint64_t value, std::uint64_t count) {
  if (count == 0) return;
  if (value >= cfg_.max_value) {
    overflow_ += count;
  } else {
    buckets_[bucket_of(value)] += count;
  }
  total_ += count;
  sum_ += static_cast<double>(value) * static_cast<double>(count);
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

std::uint64_t LogLinearHistogram::percentile(double p) const {
  if (total_ == 0) return 0;
  const auto target =
      static_cast<std::uint64_t>(p / 100.0 * static_cast<double>(total_ - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) return bucket_lower(i);
  }
  return cfg_.max_value;  // in overflow
}

double LogLinearHistogram::fraction_between(std::uint64_t lo, std::uint64_t hi) const {
  if (total_ == 0) return 0.0;
  // The overflow bin covers everything from max_value upwards, so a range
  // reaching it includes the overflow count.
  std::uint64_t count = hi >= cfg_.max_value ? overflow_ : 0;
  if (lo < cfg_.max_value)
    for (std::size_t i = index_for(lo), last = index_for(hi); i <= last; ++i) count += buckets_[i];
  return static_cast<double>(count) / static_cast<double>(total_);
}

void LogLinearHistogram::print(std::ostream& os, double min_fraction) const {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    const double frac = static_cast<double>(buckets_[i]) / static_cast<double>(total_);
    if (frac < min_fraction) continue;
    os << std::setw(10) << bucket_lower(i) << "  " << std::setw(10) << buckets_[i] << "  "
       << std::fixed << std::setprecision(2) << frac * 100.0 << "%\n";
  }
  if (overflow_ > 0) os << "  overflow  " << overflow_ << "\n";
}

void LogLinearHistogram::merge(const LogLinearHistogram& other) {
  if (other.cfg_ != cfg_)
    throw std::invalid_argument("LogLinearHistogram::merge: geometry mismatch");
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  overflow_ += other.overflow_;
  total_ += other.total_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

}  // namespace moongen::telemetry
