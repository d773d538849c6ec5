#include "sim/clock_sync.hpp"

#include <algorithm>
#include <array>

namespace moongen::sim {

namespace {

/// Repeated difference measurements per synchronization (paper: 7).
constexpr std::size_t kAttempts = 7;
/// Maximum extra delay of an outlier read.
constexpr SimTime kOutlierExtraPs = 5'000'000;  // 5 us

/// A single PCIe register read: returns the clock value and advances the
/// time cursor by the (possibly outlier-delayed) access time.
std::uint64_t pcie_read(const PtpClock& clock, SimTime* cursor, stats::Mt19937_64& rng,
                        const ClockSyncConfig& cfg) {
  SimTime access = ClockSyncConfig::kPcieReadPs;
  if (stats::canonical(rng) < cfg.outlier_probability) {
    access += static_cast<SimTime>(stats::canonical(rng) * static_cast<double>(kOutlierExtraPs));
  }
  // The value is latched at the start of the access; completion takes the
  // full round trip.
  const std::uint64_t value = clock.read(*cursor);
  *cursor += access;
  return value;
}

}  // namespace

std::int64_t measure_clock_difference(const PtpClock& a, const PtpClock& b, SimTime* cursor,
                                      stats::Mt19937_64& rng, const ClockSyncConfig& config) {
  // Read a then b: difference overestimates b by the access time.
  const auto a1 = static_cast<std::int64_t>(pcie_read(a, cursor, rng, config));
  const auto b1 = static_cast<std::int64_t>(pcie_read(b, cursor, rng, config));
  // Read b then a: difference underestimates b by the access time.
  const auto b2 = static_cast<std::int64_t>(pcie_read(b, cursor, rng, config));
  const auto a2 = static_cast<std::int64_t>(pcie_read(a, cursor, rng, config));
  // Averaging the two cancels the constant access time.
  return ((b1 - a1) + (b2 - a2)) / 2;
}

ClockSyncResult synchronize_clocks(const PtpClock& a, PtpClock& b, SimTime start,
                                   stats::Mt19937_64& rng, const ClockSyncConfig& config) {
  SimTime cursor = start;
  std::array<std::int64_t, kAttempts> diffs{};
  for (auto& diff : diffs) diff = measure_clock_difference(a, b, &cursor, rng, config);

  std::nth_element(diffs.begin(), diffs.begin() + static_cast<std::ptrdiff_t>(diffs.size() / 2),
                   diffs.end());
  const std::int64_t median = diffs[diffs.size() / 2];

  ClockSyncResult result;
  result.applied_adjustment_ps = -median;
  b.adjust(-median);

  // Verify: outlier-free difference right after the adjustment.
  ClockSyncConfig clean = config;
  clean.outlier_probability = 0.0;
  result.residual_ps = measure_clock_difference(a, b, &cursor, rng, clean);
  result.elapsed_ps = cursor - start;
  return result;
}

}  // namespace moongen::sim
