// MoonGen's clock-synchronization algorithm (paper Section 6.2).
//
// Two PTP clocks are synchronized by reading them in both orders over PCIe:
// the two resulting differences agree iff the clocks are synchronous
// (assuming constant PCIe access time). Roughly 5 % of reads are outliers,
// so the measurement is repeated 7 times (probability > 99.999 % of at
// least 3 good samples) and the median difference is applied with an atomic
// adjustment. Residual error: ±1 timer increment per clock.
#pragma once

#include <cstdint>

#include "sim/ptp_clock.hpp"
#include "sim/time.hpp"
#include "stats/mt19937_64.hpp"

namespace moongen::sim {

struct ClockSyncConfig {
  /// PCIe register read round-trip.
  static constexpr SimTime kPcieReadPs = 300'000;  // 300 ns

  /// Probability that a single register read is delayed by contention.
  double outlier_probability = 0.05;
};

struct ClockSyncResult {
  /// Adjustment applied to clock `b` (b := b - median_difference).
  std::int64_t applied_adjustment_ps = 0;
  /// Residual b-a difference measured immediately after adjustment.
  std::int64_t residual_ps = 0;
  /// Virtual time consumed by all the register reads.
  SimTime elapsed_ps = 0;
};

/// Synchronizes clock `b` to clock `a`, starting at true time `start`.
ClockSyncResult synchronize_clocks(const PtpClock& a, PtpClock& b, SimTime start,
                                   stats::Mt19937_64& rng, const ClockSyncConfig& config = {});

/// One-shot difference measurement (b - a) using the order-swap trick, for
/// drift measurements (Section 6.3). Returns the measured difference and
/// advances `*cursor` by the read time.
std::int64_t measure_clock_difference(const PtpClock& a, const PtpClock& b, SimTime* cursor,
                                      stats::Mt19937_64& rng, const ClockSyncConfig& config = {});

}  // namespace moongen::sim
