// Unidirectional link: carries frames from a port's MAC to a peer port.
// Both ports run on one event engine: Scenario::build() puts a link's two
// ends in one component, and a component lives on one shard.
#pragma once

#include <cstdint>
#include <string>

#include "fault/fault.hpp"
#include "nic/port.hpp"
#include "stats/mt19937_64.hpp"
#include "wire/cable.hpp"

namespace moongen::wire {

class Link : public nic::FrameSink {
 public:
  /// Connects `from`'s transmit path to `to`'s receive path over `cable`.
  /// Registers itself as `from`'s TX sink.
  Link(nic::Port& from, nic::Port& to, CableSpec cable, std::uint64_t seed);

  void on_frame(nic::Frame frame, sim::SimTime tx_start_ps) override;
  /// The cable latency k + l/vp, less the 32 ns by which a 10GBASE-T block
  /// code can deliver early (phy_jitter_ps); faults only delay or drop.
  [[nodiscard]] sim::SimTime min_delay_ps() const override {
    const sim::SimTime delay = cable_.k_ps + cable_.propagation_ps();
    if (cable_.jitter != PhyJitter::kTenGBaseT) return delay;
    return delay > kMaxPhyJitterPs ? delay - kMaxPhyJitterPs : 0;
  }

  /// Arms this link's fault sites (loss, corrupt, reorder, dup, flap)
  /// against `plane` under the given site name. Without this call the link
  /// carries every frame intact, exactly as before the fault plane existed.
  /// Link flap needs the plane's event queue for the carrier-up event; with
  /// a queue-less plane, flap rules are ignored.
  void install_faults(fault::FaultPlane& plane, const std::string& site);

  [[nodiscard]] const CableSpec& cable() const { return cable_; }
  [[nodiscard]] std::uint64_t frames_carried() const { return frames_; }

  /// True while carrier is present (false during an injected flap).
  [[nodiscard]] bool carrier_up() const { return carrier_up_; }

  /// Attaches the always-on RTT plane: `rtt` is the RttShard of the shard
  /// this link's *source* port runs on (on_frame executes there). The link
  /// accounts stamped frames it kills (fault loss, flap) as dropped and
  /// stamped frames it duplicates as extra in-flight stamps, so the
  /// plane's conservation law stays exact under fault injection.
  void attach_rtt(telemetry::RttShard* rtt) { rtt_ = rtt; }

  // --- fault accounting (all zero when no faults installed) ----------------
  [[nodiscard]] std::uint64_t fault_drops() const { return fault_drops_; }
  [[nodiscard]] std::uint64_t flap_drops() const { return flap_drops_; }
  [[nodiscard]] std::uint64_t corrupted() const { return corrupted_; }
  [[nodiscard]] std::uint64_t reordered() const { return reordered_; }
  [[nodiscard]] std::uint64_t duplicated() const { return duplicated_; }
  [[nodiscard]] std::uint64_t flaps() const { return flaps_; }

  // --- conservation accounting (health plane) -------------------------------
  /// Frames handed to the destination port, duplicates included. The
  /// per-link conservation law the health checker verifies:
  /// frames_carried + duplicated == flap_drops + fault_drops + delivered —
  /// every frame entering the wire is accounted exactly once.
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  /// FaultPoint fire counts, for reconciling the drop/corrupt counters
  /// above against the fault plane's own books (they must agree exactly).
  [[nodiscard]] std::uint64_t loss_fault_fires() const { return fp_loss_.fires(); }
  [[nodiscard]] std::uint64_t corrupt_fault_fires() const { return fp_corrupt_.fires(); }
  [[nodiscard]] std::uint64_t reorder_fault_fires() const { return fp_reorder_.fires(); }
  [[nodiscard]] std::uint64_t dup_fault_fires() const { return fp_dup_.fires(); }
  [[nodiscard]] std::uint64_t flap_fault_fires() const { return fp_flap_.fires(); }

 private:
  /// The largest shift phy_jitter_ps draws, either way.
  static constexpr sim::SimTime kMaxPhyJitterPs = 32'000;

  [[nodiscard]] std::int64_t phy_jitter_ps();
  void begin_flap(sim::SimTime now_ps, double down_ps_param);
  void corrupt_frame(nic::Frame& frame);
  /// Hands `frame` to the destination port, arriving at `arrival_ps`.
  void deliver(nic::Frame frame, sim::SimTime arrival_ps);

  nic::Port& from_;
  nic::Port& to_;
  CableSpec cable_;
  telemetry::RttShard* rtt_ = nullptr;
  stats::Mt19937_64 rng_;
  std::uint64_t frames_ = 0;
  std::uint64_t delivered_ = 0;

  // Fault plane wiring (all disabled by default; on_frame's fast path is
  // unchanged when nothing is installed).
  fault::FaultPlane* plane_ = nullptr;
  fault::FaultPoint fp_loss_;
  fault::FaultPoint fp_corrupt_;
  fault::FaultPoint fp_reorder_;
  fault::FaultPoint fp_dup_;
  fault::FaultPoint fp_flap_;
  stats::Mt19937_64 corrupt_rng_;  // byte-flip positions: separate stream so
                                   // corruption never perturbs phy jitter
  bool carrier_up_ = true;
  std::uint64_t fault_drops_ = 0;
  std::uint64_t flap_drops_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t flaps_ = 0;
};

}  // namespace moongen::wire
