// Testbed: one constructed experiment — ports, links, DuTs, fault planes
// and the (possibly parallel) simulation runtime that drives them.
//
// A Testbed is built by testbed::Scenario (scenario.hpp), which replaces
// the hand-wiring previously duplicated across every example: construct an
// EventQueue, four Ports, two Links, a Forwarder, a FaultPlane, bind
// telemetry, remember the right seeds. The Scenario declares the topology
// once; build() places every component on a simulation shard and wires
// fault injection and telemetry with the same site/metric names the
// hand-wired examples used — so existing CI greps and JSON consumers keep
// working.
//
// Determinism contract (DESIGN.md Section 10): for a fixed scenario, seed
// and shard count, every run produces identical outputs; and the paper's
// figure scenarios produce byte-identical telemetry for 1, 2 and 4 shards.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/device.hpp"
#include "core/task.hpp"
#include "dut/forwarder.hpp"
#include "dut/vswitch.hpp"
#include "fault/fault.hpp"
#include "nic/port.hpp"
#include "sim/parallel.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/rtt_plane.hpp"
#include "telemetry/stream.hpp"
#include "wire/link.hpp"

namespace moongen::testbed {

class Scenario;

class Testbed {
 public:
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;
  ~Testbed() = default;

  // --- topology access -----------------------------------------------------

  /// The simulated port declared as `device(id, ...)`.
  [[nodiscard]] nic::Port& port(int id);
  /// Lookup by the name given with `.name("gen_tx")`.
  [[nodiscard]] nic::Port& port(std::string_view name);
  /// The link declared as `link(from, to)` (first match in declaration
  /// order; a duplex link's reverse direction is `link(to, from)`).
  [[nodiscard]] wire::Link& link(int from, int to);
  /// The i-th forwarder in declaration order.
  [[nodiscard]] dut::Forwarder& forwarder(std::size_t index = 0);
  [[nodiscard]] std::size_t forwarder_count() const { return forwarders_.size(); }
  /// The i-th virtual switch in declaration order.
  [[nodiscard]] dut::VSwitch& vswitch(std::size_t index = 0);
  [[nodiscard]] std::size_t vswitch_count() const { return vswitches_.size(); }

  // --- topology enumeration (health checkers walk every link/port) ---------

  /// Number of unidirectional links (a duplex declaration counts as two).
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  /// The i-th link in expanded declaration order.
  [[nodiscard]] wire::Link& link_at(std::size_t index);
  /// Device ids {from, to} of the i-th link.
  [[nodiscard]] std::pair<int, int> link_ends(std::size_t index) const;
  /// All declared device ids, ascending.
  [[nodiscard]] std::vector<int> device_ids() const;

  // --- runtime -------------------------------------------------------------

  /// The event engine of the shard that owns `device_id`. Components that
  /// take an EventQueue& (Timestamper, SimLoadGen patterns, baselines) must
  /// be constructed on the engine of the ports they touch.
  [[nodiscard]] sim::EventQueue& engine(int device_id);
  /// The single engine of a one-shard testbed; throws std::logic_error if
  /// there is more than one shard (use engine(device_id) then).
  [[nodiscard]] sim::EventQueue& engine();
  [[nodiscard]] sim::ParallelRuntime& runtime() { return *runtime_; }
  [[nodiscard]] std::size_t shard_count() const { return runtime_->shard_count(); }
  [[nodiscard]] std::size_t shard_of(int device_id) const;

  /// Runs every shard up to absolute virtual time `t` (see
  /// sim::ParallelRuntime::run_until). The first call validates the fault
  /// spec's site names (see validate_fault_rules).
  void run_until(sim::SimTime t) {
    if (!fault_rules_validated_) validate_fault_rules();
    runtime_->run_until(t);
  }
  /// Runs for `seconds` of virtual time from now.
  void run_for(double seconds);
  [[nodiscard]] sim::SimTime now() const { return runtime_->now(); }

  /// Schedules `fn` at absolute virtual time `t` on the global (cross-
  /// shard) timeline: it runs single-threaded while every shard is
  /// quiesced at `t`, so it may touch any shard's components.
  void schedule_global(sim::SimTime t, std::function<void()> fn) {
    runtime_->schedule_global(t, std::move(fn));
  }

  /// Frames that crossed a shard boundary: always 0, because shards share
  /// nothing (a link's two ends are one component, so one shard). Kept for
  /// bench/e2e's wire.cross_shard_per_window metric.
  [[nodiscard]] std::uint64_t cross_shard_frames() const { return 0; }

  // --- telemetry -----------------------------------------------------------

  /// Snapshots retained by Scenario::sample_telemetry; the oldest drop
  /// beyond this many.
  static constexpr std::size_t kSeriesCapacity = 512;

  /// The registry every component of this testbed registers its readers
  /// in; components bound by the caller must not outlive the testbed.
  [[nodiscard]] telemetry::MetricRegistry& registry() { return registry_; }
  /// Every metric, read from its component at now(). Call at a quiesced
  /// instant (outside run_until, or from a global/window-hook callback).
  /// The periodic telemetry tick, HealthMonitor::dump and the examples'
  /// final `--json` snapshot all go through here.
  [[nodiscard]] telemetry::Snapshot snapshot();
  /// The series recorded by Scenario::sample_telemetry, oldest first: one
  /// snapshot at the first run instant, then one per period. Empty when
  /// no sampling was declared.
  [[nodiscard]] std::vector<telemetry::Snapshot> series() const {
    return {series_.begin(), series_.end()};
  }

  /// The always-on RTT plane (present whenever telemetry is enabled).
  /// Windows close automatically at every rtt window boundary of run_until;
  /// the last partial window is closed by a final run_until landing on a
  /// window multiple, or explicitly via rtt_plane().close_window(now()).
  [[nodiscard]] bool has_rtt_plane() const { return rtt_plane_ != nullptr; }
  [[nodiscard]] telemetry::RttPlane& rtt_plane();

  /// The streaming exporter declared with Scenario::stream_telemetry, or
  /// null when none was requested.
  [[nodiscard]] telemetry::TelemetryStream* stream() { return stream_.get(); }

  // --- fault plane ---------------------------------------------------------

  [[nodiscard]] bool has_faults() const { return !planes_.empty(); }
  /// The per-shard fault plane (sites live on the plane of the shard that
  /// executes them). Null when the scenario declared no faults.
  [[nodiscard]] fault::FaultPlane* fault_plane(std::size_t shard = 0);
  /// Total fault fires across all shards' planes.
  [[nodiscard]] std::uint64_t fault_fires() const;
  /// Fault fires at one site (sites are unique to one shard's plane).
  [[nodiscard]] std::uint64_t fault_fires_at(std::string_view site) const;
  /// Checks every fault rule against the union of probe sites requested by
  /// this testbed's components (links, ports, clocks, forwarders, plus
  /// anything installed after build() — RPC server stalls, mempools).
  /// Throws std::invalid_argument naming the first rule whose site matches
  /// no probe, with the registered sites for its kind — a typo'd site would
  /// otherwise never fire, silently. Runs automatically on the first
  /// run_until; call earlier to fail fast, or after late installs to
  /// re-check.
  void validate_fault_rules();

  // --- run state & fast path ----------------------------------------------

  /// The private run/stop flag of this testbed (the per-experiment
  /// equivalent of core::running()).
  [[nodiscard]] core::RunState& run_state() { return run_state_; }
  /// This testbed's private fast-path device table.
  [[nodiscard]] core::DeviceTable& fast_devices() { return fast_devices_; }
  /// A fast-path device declared with `fast_device(id, ...)`.
  [[nodiscard]] core::Device& fast_device(int id);

 private:
  friend class Scenario;
  Testbed() = default;

  /// Appends to the sampled series, dropping the oldest beyond capacity.
  void record(telemetry::Snapshot snap);
  /// The telemetry window hook: one snapshot, handed to the series and the
  /// stream alike.
  void telemetry_tick();

  struct DeviceEntry {
    std::string name;
    std::size_t shard = 0;
    std::unique_ptr<nic::Port> port;
  };
  struct LinkEntry {
    int from = -1;
    int to = -1;
    std::unique_ptr<wire::Link> link;
  };

  // Declaration order is destruction-order-sensitive: links reference
  // ports, ports reference shard engines and fault planes, so the members
  // they point into must be declared first (destroyed last). The registry
  // outlives every component that registered a reader in it.
  core::RunState run_state_;
  telemetry::MetricRegistry registry_;
  // Ports and links hold RttShard pointers into the plane, and the stream
  // reads the plane: both must outlive devices_/links_ below.
  std::unique_ptr<telemetry::RttPlane> rtt_plane_;
  std::unique_ptr<telemetry::TelemetryStream> stream_;
  bool sampling_ = false;
  std::deque<telemetry::Snapshot> series_;
  std::unique_ptr<sim::ParallelRuntime> runtime_;
  std::vector<std::unique_ptr<fault::FaultPlane>> planes_;  // one per shard
  std::map<int, DeviceEntry> devices_;
  std::vector<LinkEntry> links_;
  std::vector<std::unique_ptr<dut::Forwarder>> forwarders_;
  std::vector<std::unique_ptr<dut::VSwitch>> vswitches_;
  core::DeviceTable fast_devices_;
  bool fault_rules_validated_ = false;
};

}  // namespace moongen::testbed
