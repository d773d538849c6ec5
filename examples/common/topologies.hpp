// The testbed topologies that the examples, the paper benches and the tests
// share, each defined once.
//
// Each function appends one topology to a caller's testbed::Scenario. The
// global settings (seed, shards, faults, telemetry) stay with the caller:
//
//   mtb::Scenario s;
//   s.seed(cli->seed).shards(cli->shards).faults(cli->faults);
//   topo::forwarder_path(s, {.device_seeds = {1, 2, 3, 4}, .link_seeds = {5, 6}});
//   auto tb = s.build();
//
// A function declares its devices in id order and its links in a fixed
// order, so the fault sites keep their names: nic.<name>, and wire.l<N> for
// the N-th link of the whole scenario (a second topology numbers its links
// after the first one's).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dut/forwarder.hpp"
#include "dut/vswitch.hpp"
#include "testbed/scenario.hpp"

namespace moongen::topologies {

/// Where a topology lands in the scenario, and how it is seeded.
struct Placement {
  /// Id of the first device; the others follow in the order each function
  /// lists them.
  int first_id = 0;
  /// Appended to every device name (the k-th copy of a topology).
  std::string suffix{};
  /// One seed per device, in id order, and one per link, in declaration
  /// order. Empty: the Scenario derives them from its base seed. A list
  /// too short for the topology throws std::out_of_range.
  std::vector<std::uint64_t> device_seeds{};
  std::vector<std::uint64_t> link_seeds{};
};

/// The Open vSwitch DuT setup of Sections 7.4, 8.2 and 8.3 (Figures 7, 10
/// and 11): gen_tx -> dut_in => Forwarder => dut_out -> sink, X540s at
/// 10 GbE on 2 m Cat 5e. A timestamper spans gen_tx and sink, so those two
/// are coupled. The sink only counts (rx_store(false)). The DuT ports see
/// frames mid-journey, so they keep the RTT plane's stamp conservation but
/// do not fold into its histograms (rtt_record(false)).
void forwarder_path(testbed::Scenario& s, const Placement& at = {},
                    const dut::ForwarderConfig& cfg = {});

/// An RPC client and server on one duplex cable, X540s at 10 GbE. Both only
/// count: the RPC models read frames through their RX callbacks.
void rpc_pair(testbed::Scenario& s, const Placement& at = {});

/// gen -> sink, XL710s at 40 GbE on 2 m Cat 5e, coupled. The sink only
/// counts.
void xl710_pair(testbed::Scenario& s, const Placement& at = {});

/// One vport of vswitch_fanout: its link speed in Mbit/s (vport and sink
/// alike) and, if set, a fixed latency for its cable to the sink instead of
/// 2 m Cat 5e.
struct VPort {
  std::uint64_t link_mbit = 10'000;
  std::optional<double> latency_ns{};
};

/// A multi-tenant virtual switch: gen -> vs_in => VSwitch => vport<i> ->
/// sink<i>, one vport and sink per entry of `vports`, X540s. Devices are
/// gen, vs_in, then vport<i> and sink<i> in turn; links are gen -> vs_in,
/// then vport<i> -> sink<i>. The switch ports do not fold into the RTT
/// plane's histograms, and the sinks only count.
void vswitch_fanout(testbed::Scenario& s, const Placement& at, const std::vector<VPort>& vports,
                    const dut::VSwitchConfig& cfg);

/// The Table 4 / Figure 8 setup: tx -> rx, an X540 transmitting at GbE into
/// an 82580 that timestamps every frame, on 2 m Cat 5e GbE, coupled.
void gbe_pair(testbed::Scenario& s, const Placement& at = {});

}  // namespace moongen::topologies
