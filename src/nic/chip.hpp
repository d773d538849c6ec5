// Chip capability descriptions for the NIC models.
//
// One ChipSpec per NIC family evaluated in the paper (Sections 3.3, 5.4,
// 6.1, 7, 8.1), with the datasheet-documented properties that the
// experiments depend on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "sim/time.hpp"

namespace moongen::nic {

struct ChipSpec {
  std::string name;

  /// TX/RX queues per port (82599/X540: 128).
  int num_queues = 128;

  /// Supported link speeds in Mbit/s (highest first).
  std::uint64_t max_link_mbit = 10'000;

  // --- PTP timestamp unit (Section 6.1) -----------------------------------
  /// Timer increment period: readings are quantized to this.
  /// 82599: 12.8 ns (incremented every *two* 156.25 MHz cycles),
  /// X540: 6.4 ns, 82580: 64 ns.
  sim::SimTime ptp_increment_ps = 6'400;
  /// 82580 only: readings carry a per-reset constant offset k * 8 ns.
  sim::SimTime ptp_phase_step_ps = 0;
  /// 82580 can prepend an RX timestamp to *every* received packet; the
  /// 10 GbE chips only latch one timestamp in a register that must be read
  /// back before the next packet can be stamped.
  bool rx_timestamp_all = false;
  /// Minimum UDP PTP packet size the unit accepts (Section 6.4: UDP PTP
  /// packets smaller than 80 bytes are refused; Ethernet PTP is not).
  std::size_t min_udp_ptp_size = 80;

  /// MAC internal cycle: frame transmissions start aligned to this grid
  /// (the MAC and the timestamp unit share one clock, which is why repeated
  /// latency measurements are deterministic, Section 6.1).
  sim::SimTime mac_cycle_ps = 6'400;

  // --- TX path -------------------------------------------------------------
  /// NICs refuse frames with a wire length below 33 bytes (Section 8.1).
  std::size_t min_wire_len = 33;

  // --- Hardware rate control (Section 7) ------------------------------------
  /// Internal pacing clock tick at max link speed; scaled by the link-speed
  /// ratio when operating slower (Section 7.3: "frequency ... is scaled up
  /// by a factor of 10 when operating at 10 GbE compared to GbE").
  sim::SimTime rate_tick_at_max_speed_ps = 6'400;
  /// Above ~9 Mpps per queue the rate control behaves unpredictably and
  /// non-linearly on X520/X540 (Section 7.5).
  double rate_control_reliable_pps = 9e6;

  // --- First-generation 40 GbE quirks (Section 5.4) -------------------------
  /// Per-port packet-engine cap: cannot reach line rate for <= 128 B frames.
  std::optional<double> port_pps_cap;
  /// Aggregate (dual-port) MAC bandwidth cap in Mbit/s.
  std::optional<std::uint64_t> aggregate_mbit_cap;
  /// Aggregate (dual-port) packet rate cap.
  std::optional<double> aggregate_pps_cap;
};

/// Intel 82599 10 GbE controller (fiber, SFP+).
ChipSpec intel_82599();
/// Intel X540 10 GbE controller (10GBASE-T copper).
ChipSpec intel_x540();
/// Intel 82580 GbE controller (can timestamp all received packets).
ChipSpec intel_82580();
/// Intel XL710 40 GbE controller (first-generation, bandwidth-limited).
ChipSpec intel_xl710();

}  // namespace moongen::nic
