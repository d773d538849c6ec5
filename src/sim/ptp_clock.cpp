#include "sim/ptp_clock.hpp"

#include <cmath>

#include "stats/mt19937_64.hpp"

namespace moongen::sim {

PtpClock::PtpClock(PtpClockConfig config, std::uint64_t seed) : config_(config) { reset(seed); }

void PtpClock::reset(std::uint64_t seed) {
  stats::Mt19937_64 rng(seed);
  // Timer starts at an arbitrary phase relative to true time.
  offset_ps_ = static_cast<std::int64_t>(rng() % config_.increment_ps);
  if (config_.phase_step_ps > 0) {
    const auto steps = config_.increment_ps / config_.phase_step_ps;
    phase_offset_ps_ = (rng() % steps) * config_.phase_step_ps;
  } else {
    phase_offset_ps_ = 0;
  }
}

double PtpClock::raw(SimTime now) const {
  const double drift_factor = 1.0 + static_cast<double>(config_.drift_ppb) * 1e-9;
  return static_cast<double>(now) * drift_factor + static_cast<double>(offset_ps_);
}

std::uint64_t PtpClock::read(SimTime now) const {
  const double r = raw(now);
  const auto ticks = static_cast<std::uint64_t>(r / static_cast<double>(config_.increment_ps));
  return ticks * config_.increment_ps + phase_offset_ps_;
}

void PtpClock::adjust(std::int64_t delta_ps) { offset_ps_ += delta_ps; }

void PtpClock::set_drift_ppb(std::int64_t ppb, SimTime now) {
  // Continuity at `now`: now*(1+d1e-9)+off1 == now*(1+d2e-9)+off2.
  offset_ps_ += static_cast<std::int64_t>(
      static_cast<double>(now) * static_cast<double>(config_.drift_ppb - ppb) * 1e-9);
  config_.drift_ppb = ppb;
}

}  // namespace moongen::sim
