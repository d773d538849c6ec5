#include "telemetry/log_linear_histogram.hpp"

#include <algorithm>
#include <bit>
#include <iomanip>
#include <stdexcept>

namespace moongen::telemetry {

LogLinearHistogram::LogLinearHistogram(HistogramConfig config) : cfg_(config) {
  if (cfg_.sub_bucket_bits < 1 || cfg_.sub_bucket_bits > 20)
    throw std::invalid_argument("LogLinearHistogram: sub_bucket_bits must be in [1, 20]");
  if (cfg_.max_value == 0)
    throw std::invalid_argument("LogLinearHistogram: max_value must be > 0");
  buckets_.resize(index_for(cfg_.max_value) + 1, 0);
}

std::size_t LogLinearHistogram::index_for(std::uint64_t value) const {
  value = std::min(value, cfg_.max_value);
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
  if (i < sub_count) return i;
  const std::uint64_t off = i - sub_count;
  const unsigned e = static_cast<unsigned>(off / (sub_count / 2)) + 1;
  const std::uint64_t sub = off % (sub_count / 2);
  return (sub + sub_count / 2) << e;
}

std::uint64_t LogLinearHistogram::bucket_width(std::size_t i) const {
  const std::uint64_t sub_count = 1ull << cfg_.sub_bucket_bits;
  if (i < sub_count) return 1;
  const unsigned e = static_cast<unsigned>((i - sub_count) / (sub_count / 2)) + 1;
  return 1ull << e;
}

void LogLinearHistogram::record(std::uint64_t value, std::uint64_t count) {
  if (count == 0) return;
  if (value >= cfg_.max_value) {
    overflow_ += count;
  } else {
    buckets_[index_for(value)] += count;
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
  if (other.cfg_.sub_bucket_bits != cfg_.sub_bucket_bits ||
      other.cfg_.max_value != cfg_.max_value)
    throw std::invalid_argument("LogLinearHistogram::merge: geometry mismatch");
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  overflow_ += other.overflow_;
  total_ += other.total_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

}  // namespace moongen::telemetry
