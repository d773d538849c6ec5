// Scenario: the declarative builder behind every example testbed.
//
// Replaces the ~60 lines of hand-wiring (event queue, ports, links,
// forwarder, fault plane, telemetry binding) previously copy-pasted across
// the examples with one fluent declaration:
//
//   auto tb = testbed::Scenario()
//                 .seed(1)
//                 .shards(n)                      // from --shards
//                 .faults(spec)                   // from --faults
//                 .device(0, nic::intel_x540()).name("gen_tx").with_seed(1)
//                 .device(1, nic::intel_x540()).name("dut_in").with_seed(2)
//                 .device(2, nic::intel_x540()).name("dut_out").with_seed(3)
//                 .device(3, nic::intel_x540()).name("sink").with_seed(4)
//                     .rx_store(false)
//                 .link(0, 1).with_seed(5)        // cat5e 10GBASE-T default
//                 .link(2, 3).with_seed(6)
//                 .forwarder(1, 2)                // couples dut_in/dut_out
//                 .couple(0, 3)                   // timestamper spans these
//                 .build();
//
// build() partitions the devices into shards by connected component: every
// link joins its two ends, and couple(), forwarder() and vswitch() join the
// devices they name (the timestamper or DuT behind them touches both ends
// synchronously). Components are placed on shards round-robin, in order of
// their smallest device id. They exchange no frames, so shards share
// nothing: the runtime runs them in parallel, and they meet only at global
// events (sim::ParallelRuntime).
//
// Modifier calls (name/with_seed/cable/...) apply to the most recently
// declared device or link, in the builder-cursor style of the usage above.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dut/forwarder.hpp"
#include "dut/vswitch.hpp"
#include "fault/fault.hpp"
#include "nic/chip.hpp"
#include "testbed/testbed.hpp"
#include "wire/cable.hpp"

namespace moongen::testbed {

class Scenario {
 public:
  Scenario() = default;

  // --- global knobs --------------------------------------------------------

  /// Base seed: devices and links without an explicit with_seed() derive
  /// theirs from this (mixed with the device id / link index).
  Scenario& seed(std::uint64_t s);
  /// Requested shard count (from --shards). build() caps it at the number
  /// of components (devices joined by links, couplings and DuTs); 1 (the
  /// default) is the sequential engine, and every shard count gives
  /// byte-identical results.
  Scenario& shards(int n);
  /// Installs the fault spec on every component (links as wire.l<N>, ports
  /// as nic.<name>, forwarders as dut.fwd[N], clocks as clock.<name>).
  /// Sites are only materialized where a rule matches, so this is
  /// behaviour-identical to the old selective install_faults calls.
  Scenario& faults(fault::FaultSpec spec);
  /// Parses the --faults mini-language; throws std::invalid_argument on a
  /// malformed spec.
  Scenario& faults(std::string_view text);
  /// Disables (or re-enables) telemetry binding; default on. Also gates the
  /// always-on RTT plane.
  Scenario& telemetry(bool enabled);
  /// Flow groups of the always-on RTT plane (rounded up to a power of two;
  /// default 1). A frame's `flow` label selects its group modulo this.
  Scenario& rtt_groups(std::uint32_t n);
  /// Window length of the RTT plane's quantile snapshots in nanoseconds of
  /// virtual time (default 100 ms). Windows close automatically during
  /// run_until at every multiple of this period. Throws
  /// std::invalid_argument on 0 or a window that overflows picoseconds.
  Scenario& rtt_window_ns(std::uint64_t ns);
  /// Records one registry snapshot (Testbed::snapshot) per `period_ns` of
  /// virtual time in memory — plus one at the first run instant — for
  /// Testbed::series(), keeping the newest Testbed::kSeriesCapacity.
  Scenario& sample_telemetry(std::uint64_t period_ns);
  /// Streams one registry snapshot per `period_ns` of virtual time to
  /// `path` as a JSON line, plus every RTT window closed in between, and
  /// retains nothing. stdout is untouched — an instrumented run prints
  /// byte-identically to an uninstrumented one. Sampling and streaming
  /// share one window hook and one snapshot per tick, so they must declare
  /// the same period.
  Scenario& stream_telemetry(std::string path, std::uint64_t period_ns);

  // --- simulated devices ---------------------------------------------------

  /// Declares a simulated NIC port. Ids must be unique and non-negative.
  Scenario& device(int id, nic::ChipSpec chip);
  /// Names the device: telemetry prefix `port.<name>`, fault sites
  /// `nic.<name>` / `clock.<name>`, and lookup via Testbed::port(name).
  /// Default name: `dev<id>`.
  Scenario& name(std::string device_name);
  /// Link speed in Mbit/s (default 10'000). build() throws
  /// std::invalid_argument on 0 or a speed above the chip's max_link_mbit.
  Scenario& link_mbit(std::uint64_t mbit);
  /// Disables payload storage on RX queue 0 (pure counting sinks).
  Scenario& rx_store(bool store);
  /// Whether this device's RX path folds stamped frames into the RTT
  /// plane's histograms (default on — the plane is always in-path).
  /// Conservation counting (rx_seen / drops) stays on either way; turn
  /// this off for ports whose RX is not an end-to-end measurement point
  /// (e.g. a DuT's ingress, where the frame is still mid-journey).
  Scenario& rtt_record(bool record);

  // --- links ---------------------------------------------------------------

  /// Declares a one-directional cable from `from`'s MAC to `to`'s RX path;
  /// joins both devices into one component.
  Scenario& link(int from, int to);
  /// Cable model for the last link (default: 2 m Cat 5e 10GBASE-T).
  Scenario& cable(wire::CableSpec c);
  /// Fixed, jitter-free latency for the last link (convenience cable).
  Scenario& latency_ns(double ns);
  /// Also creates the reverse link with the same cable (its seed is the
  /// declared seed + 1, or derived from the base seed).
  Scenario& duplex();

  /// Explicit seed for the last declared device or link.
  Scenario& with_seed(std::uint64_t s);

  // --- coupling & DuTs -----------------------------------------------------

  /// Joins two devices into one component, so onto one shard (required
  /// when something — e.g. a Timestamper or a shared PtpClock — touches
  /// both and no link or DuT joins them already).
  Scenario& couple(int a, int b);
  /// Declares an OVS-like forwarder from `in_device` RX 0 to `out_device`
  /// TX 0; implies couple(in_device, out_device).
  Scenario& forwarder(int in_device, int out_device, dut::ForwarderConfig cfg = {});
  /// Declares a multi-tenant virtual switch from `in_device` RX 0 to the
  /// vports `out_devices` (TX 0 each, in the given order — TenantConfig
  /// vport indices refer to this order); implies coupling the ingress with
  /// every vport. Fault sites: `vswitch.drop` / `vswitch.stall` (suffix
  /// `2`, `3`... on the site stem for later vswitches); telemetry under
  /// `vswitch.*` with per-tenant `vswitch.t<k>.*`.
  Scenario& vswitch(int in_device, std::vector<int> out_devices, dut::VSwitchConfig cfg);

  /// Validates the declaration, partitions devices into shards and
  /// constructs the testbed. Throws std::invalid_argument on undeclared
  /// ids, or a telemetry period that overflows picoseconds, differs between
  /// sample_telemetry and stream_telemetry, or outlasts the RTT windows
  /// the plane retains for the stream.
  [[nodiscard]] std::unique_ptr<Testbed> build();

 private:
  enum class Cursor { kNone, kDevice, kLink };

  struct DeviceDecl {
    int id = -1;
    nic::ChipSpec chip;
    std::string name;
    std::uint64_t link_mbit = 10'000;
    bool rx_store = true;
    bool rtt_record = true;
    std::optional<std::uint64_t> seed;
  };
  struct LinkDecl {
    int from = -1;
    int to = -1;
    wire::CableSpec cable = wire::cat5e_10gbaset(2.0);
    std::optional<std::uint64_t> seed;
    bool duplex = false;
  };
  struct ForwarderDecl {
    int in = -1;
    int out = -1;
    dut::ForwarderConfig cfg;
  };
  struct VSwitchDecl {
    int in = -1;
    std::vector<int> outs;
    dut::VSwitchConfig cfg;
  };
  struct CoupleDecl {
    int a = -1;
    int b = -1;
  };

  DeviceDecl& cur_device();
  LinkDecl& cur_link();
  [[nodiscard]] std::size_t device_index(int id, const char* what) const;
  /// The validated snapshot period in ps, or 0 when neither sampling nor
  /// streaming is declared.
  [[nodiscard]] std::uint64_t telemetry_period_ps() const;

  std::uint64_t seed_ = 1;
  int shards_ = 1;
  fault::FaultSpec fault_spec_;
  bool telemetry_enabled_ = true;
  std::uint32_t rtt_groups_ = 1;
  std::uint64_t rtt_window_ps_ = 100'000'000'000ull;  // 100 ms
  std::uint64_t sample_period_ns_ = 0;  // 0: not sampled
  std::string stream_path_;             // empty: not streamed
  std::uint64_t stream_period_ns_ = 0;

  std::vector<DeviceDecl> devices_;
  std::vector<LinkDecl> links_;
  std::vector<ForwarderDecl> forwarders_;
  std::vector<VSwitchDecl> vswitches_;
  std::vector<CoupleDecl> couples_;
  Cursor cursor_ = Cursor::kNone;
};

}  // namespace moongen::testbed
