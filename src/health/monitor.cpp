#include "health/monitor.hpp"

#include <ostream>

#include "sim/parallel.hpp"
#include "telemetry/registry.hpp"
#include "testbed/testbed.hpp"

namespace moongen::health {

namespace {
/// Flight-recorder entries retained per shard.
constexpr std::size_t kRecorderCapacity = 256;
}  // namespace

// --- DegradationGovernor ----------------------------------------------------

DegradationGovernor::DegradationGovernor(std::string label, GovernorConfig cfg,
                                         PressureFn pressure, ApplyFn apply)
    : label_(std::move(label)), cfg_(cfg), pressure_(std::move(pressure)),
      apply_(std::move(apply)) {}

void DegradationGovernor::tick() {
  const std::uint64_t p = pressure_();
  if (!primed_) {
    primed_ = true;
    last_pressure_ = p;
    return;
  }
  const std::uint64_t delta = p - last_pressure_;
  last_pressure_ = p;
  const bool hot = delta >= cfg_.pressure_threshold;
  if (hot) {
    ++hot_streak_;
    cool_streak_ = 0;
  } else {
    ++cool_streak_;
    hot_streak_ = 0;
  }
  if (!active_ && hot_streak_ >= cfg_.enter_windows) {
    active_ = true;
    ++enters_;
    if (apply_) apply_(true, cfg_.degraded_keep);
  } else if (active_ && cool_streak_ >= cfg_.exit_windows) {
    active_ = false;
    ++recovers_;
    if (apply_) apply_(false, 1.0);
  }
}

void DegradationGovernor::bind_telemetry(telemetry::MetricRegistry& registry,
                                         const std::string& prefix) {
  telemetry_.open(registry);
  telemetry_.counter(prefix + ".enter", [this] { return enters_; });
  telemetry_.counter(prefix + ".recover", [this] { return recovers_; });
  telemetry_.gauge(prefix + ".active", [this] { return active_ ? 1.0 : 0.0; });
}

// --- HealthMonitor ----------------------------------------------------------

HealthMonitor::HealthMonitor(testbed::Testbed& tb, MonitorConfig cfg) : tb_(tb), cfg_(cfg) {
  auto& rt = tb_.runtime();
  recorder_ = std::make_unique<FlightRecorder>(rt.shard_count(), kRecorderCapacity);
  // Intern every fault site before the run: the fire path then only reads
  // the table (see FlightRecorder's concurrency contract). Sites installed
  // after this constructor record as "?" — construct the monitor last.
  for (std::size_t s = 0; tb_.fault_plane(s) != nullptr; ++s) {
    auto* plane = tb_.fault_plane(s);
    for (const auto& req : plane->requested_sites()) recorder_->intern_site(req.name);
    plane->set_fire_hook([rec = recorder_.get(), s](const std::string& site,
                                                    fault::FaultKind kind, sim::SimTime t) {
      rec->record_fault(s, site, kind, t);
    });
  }
  for (std::size_t s = 0; s < rt.shard_count(); ++s)
    rt.shard(s).set_trace_sink(recorder_->sink(s));

  // The testbed-wide checkers; app-specific ones (RPC clients, mempools)
  // are added through checkers().add().
  for (std::size_t s = 0; s < rt.shard_count(); ++s)
    checkers_.add("engine.shard" + std::to_string(s),
                  make_engine_checker(rt.shard(s), "shard" + std::to_string(s)));
  checkers_.add("link.conservation", make_link_checker(tb_));
  checkers_.add("port.accounting", make_port_checker(tb_));
  if (tb_.vswitch_count() > 0) checkers_.add("vswitch.conservation", make_vswitch_checker(tb_));
  checkers_.bind_telemetry(tb_.registry(), "health");

  if (cfg_.enable_watchdog) watchdog_ = std::make_unique<Watchdog>(rt, cfg_.watchdog);
}

HealthMonitor::~HealthMonitor() {
  if (watchdog_ != nullptr) watchdog_->stop();
  auto& rt = tb_.runtime();
  for (std::size_t s = 0; s < rt.shard_count(); ++s) rt.shard(s).set_trace_sink(nullptr);
  for (std::size_t s = 0; tb_.fault_plane(s) != nullptr; ++s)
    tb_.fault_plane(s)->set_fire_hook({});
}

DegradationGovernor& HealthMonitor::add_governor(std::string label, GovernorConfig cfg,
                                                 DegradationGovernor::PressureFn pressure,
                                                 DegradationGovernor::ApplyFn apply) {
  auto gov = std::make_unique<DegradationGovernor>(std::move(label), cfg, std::move(pressure),
                                                   std::move(apply));
  gov->bind_telemetry(tb_.registry(), "health.degraded." + gov->label());
  governors_.push_back(std::move(gov));
  return *governors_.back();
}

void HealthMonitor::start(sim::SimTime until_ps) {
  const sim::SimTime first = tb_.now() + cfg_.window_ps;
  if (first <= until_ps)
    tb_.schedule_global(first, [this, first, until_ps] { tick(first, until_ps); });
  if (watchdog_ != nullptr) watchdog_->start();
}

void HealthMonitor::tick(sim::SimTime now_ps, sim::SimTime until_ps) {
  ++ticks_;
  checkers_.run_all(now_ps);
  for (auto& gov : governors_) gov->tick();
  const sim::SimTime next = now_ps + cfg_.window_ps;
  if (next <= until_ps)
    tb_.schedule_global(next, [this, next, until_ps] { tick(next, until_ps); });
}

std::vector<Violation> HealthMonitor::check_now() { return checkers_.run_all(tb_.now()); }

void HealthMonitor::dump(std::ostream& os, const std::string& reason, bool quiesced) {
  auto& rt = tb_.runtime();
  std::vector<std::uint64_t> heartbeats;
  heartbeats.reserve(rt.shard_count());
  for (std::size_t s = 0; s < rt.shard_count(); ++s) heartbeats.push_back(rt.heartbeat(s));
  if (!quiesced) {
    // Watchdog-trip path: shards may still be running, so only the
    // recorder's lock-free rings and the heartbeat atomics are safe —
    // no telemetry reader, no simulated-clock read.
    recorder_->dump_json(os, reason, checkers_.violations(), heartbeats, nullptr);
    return;
  }
  const telemetry::Snapshot snap = tb_.snapshot();
  recorder_->dump_json(os, reason, checkers_.violations(), heartbeats, &snap);
}

}  // namespace moongen::health
