#include "topologies.hpp"

#include <string>
#include <utility>
#include <vector>

#include "nic/chip.hpp"
#include "wire/cable.hpp"

namespace moongen::topologies {

namespace {

/// Declares the topology's k-th device; further modifiers apply to it.
testbed::Scenario& device(testbed::Scenario& s, const Placement& at, std::size_t k,
                          nic::ChipSpec chip, const std::string& stem) {
  s.device(at.first_id + static_cast<int>(k), std::move(chip)).name(stem + at.suffix);
  if (!at.device_seeds.empty()) s.with_seed(at.device_seeds.at(k));
  return s;
}

/// Declares the topology's k-th link, between its devices `from` and `to`.
testbed::Scenario& link(testbed::Scenario& s, const Placement& at, std::size_t k, int from,
                        int to) {
  s.link(at.first_id + from, at.first_id + to);
  if (!at.link_seeds.empty()) s.with_seed(at.link_seeds.at(k));
  return s;
}

}  // namespace

void forwarder_path(testbed::Scenario& s, const Placement& at, const dut::ForwarderConfig& cfg) {
  device(s, at, 0, nic::intel_x540(), "gen_tx");
  device(s, at, 1, nic::intel_x540(), "dut_in").rtt_record(false);
  device(s, at, 2, nic::intel_x540(), "dut_out").rtt_record(false);
  device(s, at, 3, nic::intel_x540(), "sink").rx_store(false);
  link(s, at, 0, 0, 1);
  link(s, at, 1, 2, 3);
  s.forwarder(at.first_id + 1, at.first_id + 2, cfg).couple(at.first_id, at.first_id + 3);
}

void rpc_pair(testbed::Scenario& s, const Placement& at) {
  device(s, at, 0, nic::intel_x540(), "client").rx_store(false);
  device(s, at, 1, nic::intel_x540(), "server").rx_store(false);
  link(s, at, 0, 0, 1).duplex();
}

void xl710_pair(testbed::Scenario& s, const Placement& at) {
  device(s, at, 0, nic::intel_xl710(), "gen").link_mbit(40'000);
  device(s, at, 1, nic::intel_xl710(), "sink").link_mbit(40'000).rx_store(false);
  link(s, at, 0, 0, 1);
  s.couple(at.first_id, at.first_id + 1);
}

void vswitch_fanout(testbed::Scenario& s, const Placement& at, const std::vector<VPort>& vports,
                    const dut::VSwitchConfig& cfg) {
  device(s, at, 0, nic::intel_x540(), "gen");
  device(s, at, 1, nic::intel_x540(), "vs_in").rtt_record(false);
  for (std::size_t i = 0; i < vports.size(); ++i) {
    const std::string index = std::to_string(i);
    device(s, at, 2 + 2 * i, nic::intel_x540(), "vport" + index)
        .link_mbit(vports[i].link_mbit)
        .rtt_record(false);
    device(s, at, 3 + 2 * i, nic::intel_x540(), "sink" + index)
        .link_mbit(vports[i].link_mbit)
        .rx_store(false);
  }
  link(s, at, 0, 0, 1);
  std::vector<int> outs;
  for (std::size_t i = 0; i < vports.size(); ++i) {
    const int vport = 2 + 2 * static_cast<int>(i);
    link(s, at, 1 + i, vport, vport + 1);
    if (vports[i].latency_ns) s.latency_ns(*vports[i].latency_ns);
    outs.push_back(at.first_id + vport);
  }
  s.vswitch(at.first_id + 1, std::move(outs), cfg);
}

void gbe_pair(testbed::Scenario& s, const Placement& at) {
  device(s, at, 0, nic::intel_x540(), "tx").link_mbit(1'000);
  device(s, at, 1, nic::intel_82580(), "rx").link_mbit(1'000);
  link(s, at, 0, 0, 1).cable(wire::cat5e_gbe(2.0));
  s.couple(at.first_id, at.first_id + 1);
}

}  // namespace moongen::topologies
