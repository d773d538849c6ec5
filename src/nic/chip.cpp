#include "nic/chip.hpp"

namespace moongen::nic {

ChipSpec intel_82599() {
  ChipSpec spec;
  spec.name = "82599";
  spec.num_queues = 128;
  spec.max_link_mbit = 10'000;
  spec.ptp_increment_ps = 12'800;  // timer increments every two 6.4 ns cycles
  return spec;
}

ChipSpec intel_x540() {
  ChipSpec spec;
  spec.name = "X540";
  spec.num_queues = 128;
  spec.max_link_mbit = 10'000;
  spec.ptp_increment_ps = 6'400;
  return spec;
}

ChipSpec intel_82580() {
  ChipSpec spec;
  spec.name = "82580";
  spec.num_queues = 8;
  spec.max_link_mbit = 1'000;
  spec.ptp_increment_ps = 64'000;
  spec.ptp_phase_step_ps = 8'000;  // readings are n*64ns + k*8ns
  spec.rx_timestamp_all = true;
  spec.rate_tick_at_max_speed_ps = 64'000;
  spec.mac_cycle_ps = 8'000;  // 125 MHz GbE MAC
  return spec;
}

ChipSpec intel_xl710() {
  ChipSpec spec;
  spec.name = "XL710";
  spec.num_queues = 384;
  spec.max_link_mbit = 40'000;
  spec.ptp_increment_ps = 6'400;
  // Hardware bottlenecks (Section 5.4 / Intel product brief [16]):
  // line rate only for frames larger than 128 B; ~30 Mpps per-port packet
  // engine cap (reached with two cores); 42 Mpps / 50 Gbit/s dual-port.
  spec.port_pps_cap = 30e6;
  spec.aggregate_mbit_cap = 50'000;
  spec.aggregate_pps_cap = 42e6;
  return spec;
}

}  // namespace moongen::nic
