// HealthMonitor: glue between a Testbed and the health plane's pieces —
// checkers on a periodic window, the flight recorder on every shard, an
// optional wall-clock watchdog, and graceful-degradation governors.
//
// One object, one call:
//
//   health::MonitorConfig hc;
//   hc.enable_watchdog = true;
//   health::HealthMonitor mon(*tb, hc);
//   mon.start(end_ps);         // periodic global check ticks
//   tb->run_until(end_ps);
//   if (!mon.violations().empty()) { mon.dump(std::cerr, "..."); ... }
//
// Everything the monitor attaches is observation-only (trace sinks, fire
// hooks, checkers): a monitored run is byte-identical to an unmonitored
// one. The single intentional exception is degradation — a governor whose
// pressure threshold trips *does* change behavior (that is its job), and
// a governor that never trips changes nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "health/flight_recorder.hpp"
#include "health/health.hpp"
#include "health/watchdog.hpp"
#include "sim/time.hpp"

namespace moongen::testbed {
class Testbed;
}

namespace moongen::health {

// --- graceful degradation ---------------------------------------------------

struct GovernorConfig {
  /// A window is "hot" when the pressure counter grew by at least this
  /// much since the previous window.
  std::uint64_t pressure_threshold = 1;
  /// Consecutive hot windows before entering degraded mode.
  std::uint64_t enter_windows = 3;
  /// Consecutive cool windows before recovering (hysteresis: strictly
  /// more than 1 so a single quiet window doesn't flap the mode).
  std::uint64_t exit_windows = 5;
  /// Load fraction to keep while degraded (handed to the apply hook).
  double degraded_keep = 0.5;
};

/// Watches one cumulative pressure counter (rx_overflow drops, mempool
/// exhaustion events, ...) at window boundaries and drives a shed/restore
/// hook with hysteresis. Deterministic: decisions depend only on the
/// simulated counter values, never on wall time.
class DegradationGovernor {
 public:
  /// Cumulative, monotonic pressure reading (deltas are formed per window).
  using PressureFn = std::function<std::uint64_t()>;
  /// Applies the mode: `degraded` with the keep fraction to use (1.0 on
  /// recovery). Typically forwards to OpenLoopGenerator::set_keep_fraction.
  using ApplyFn = std::function<void(bool degraded, double keep)>;

  DegradationGovernor(std::string label, GovernorConfig cfg, PressureFn pressure, ApplyFn apply);
  DegradationGovernor(const DegradationGovernor&) = delete;
  DegradationGovernor& operator=(const DegradationGovernor&) = delete;

  /// Window-boundary evaluation; called by the HealthMonitor's tick.
  void tick();

  [[nodiscard]] const std::string& label() const { return label_; }
  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] std::uint64_t enters() const { return enters_; }
  [[nodiscard]] std::uint64_t recovers() const { return recovers_; }

  /// `<prefix>.enter` / `<prefix>.recover` counters + `<prefix>.active`
  /// gauge (prefix is typically "health.degraded.<label>").
  void bind_telemetry(telemetry::MetricRegistry& registry, const std::string& prefix);

 private:
  std::string label_;
  GovernorConfig cfg_;
  PressureFn pressure_;
  ApplyFn apply_;
  std::uint64_t last_pressure_ = 0;
  bool primed_ = false;  // first tick only establishes the baseline
  std::uint64_t hot_streak_ = 0;
  std::uint64_t cool_streak_ = 0;
  bool active_ = false;
  std::uint64_t enters_ = 0;
  std::uint64_t recovers_ = 0;
  telemetry::Binding telemetry_;
};

// --- the monitor ------------------------------------------------------------

struct MonitorConfig {
  /// Checker / governor evaluation period (virtual time).
  sim::SimTime window_ps = 1'000'000'000;  // 1 ms
  /// Start a wall-clock watchdog thread over the runtime's heartbeats.
  bool enable_watchdog = false;
  WatchdogConfig watchdog;
};

class HealthMonitor {
 public:
  explicit HealthMonitor(testbed::Testbed& tb, MonitorConfig cfg = {});
  /// Detaches every trace sink and fire hook and stops the watchdog.
  ~HealthMonitor();
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  [[nodiscard]] CheckerRegistry& checkers() { return checkers_; }
  [[nodiscard]] FlightRecorder& recorder() { return *recorder_; }
  /// Null unless cfg.enable_watchdog.
  [[nodiscard]] Watchdog* watchdog() { return watchdog_.get(); }

  /// Registers a degradation governor, evaluated on every window tick.
  DegradationGovernor& add_governor(std::string label, GovernorConfig cfg,
                                    DegradationGovernor::PressureFn pressure,
                                    DegradationGovernor::ApplyFn apply);

  /// Schedules the periodic check tick as a recurring global event from
  /// the next window boundary up to `until_ps`, and starts the watchdog
  /// if enabled. Call once, before the run.
  void start(sim::SimTime until_ps);

  [[nodiscard]] const std::vector<Violation>& violations() const {
    return checkers_.violations();
  }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
  [[nodiscard]] std::uint64_t watchdog_trips() const {
    return watchdog_ != nullptr ? watchdog_->trips() : 0;
  }

  /// Writes the flight-recorder JSON dump: reason, accumulated violations,
  /// per-shard heartbeats and event tails, full telemetry snapshot. Pass
  /// `quiesced = false` from a watchdog trip callback (shards may still be
  /// running): the dump then sticks to the lock-free recorder rings and
  /// heartbeat atomics and omits the telemetry snapshot.
  void dump(std::ostream& os, const std::string& reason, bool quiesced = true);

  /// Runs every checker once at the current virtual time (also done by the
  /// periodic tick; call after the run for a final quiesced pass).
  std::vector<Violation> check_now();

 private:
  void tick(sim::SimTime now_ps, sim::SimTime until_ps);

  testbed::Testbed& tb_;
  MonitorConfig cfg_;
  CheckerRegistry checkers_;
  std::unique_ptr<FlightRecorder> recorder_;
  std::unique_ptr<Watchdog> watchdog_;
  std::vector<std::unique_ptr<DegradationGovernor>> governors_;
  std::uint64_t ticks_ = 0;
};

}  // namespace moongen::health
