#include "wire/link.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "stats/samplers.hpp"

namespace moongen::wire {

namespace {

// Default fault magnitudes (used when a rule's `param` is unset).
constexpr sim::SimTime kDefaultFlapDownPs = 100'000'000;  // 100 us carrier loss
constexpr sim::SimTime kDefaultReorderHoldPs = 1'000'000; // 1 us hold-back

}  // namespace

Link::Link(nic::Port& from, nic::Port& to, CableSpec cable, std::uint64_t seed)
    : from_(from), to_(to), cable_(cable), rng_(seed) {
  // Both ends of a cable negotiate one rate. A mismatch would let the
  // receiver finish a frame before the sender's serialization of it ends
  // (its completion math uses its own byte time) — events in the past.
  if (from.link_mbit() != to.link_mbit())
    throw std::invalid_argument("Link: port link rates differ (" +
                                std::to_string(from.link_mbit()) + " vs " +
                                std::to_string(to.link_mbit()) + " Mbit)");
  from.set_tx_sink(this);
}

void Link::install_faults(fault::FaultPlane& plane, const std::string& site) {
  plane_ = &plane;
  fp_loss_ = plane.point(fault::FaultKind::kFrameLoss, site);
  fp_corrupt_ = plane.point(fault::FaultKind::kFrameCorrupt, site);
  fp_reorder_ = plane.point(fault::FaultKind::kFrameReorder, site);
  fp_dup_ = plane.point(fault::FaultKind::kFrameDuplicate, site);
  if (plane.events() != nullptr) {
    fp_flap_ = plane.point(fault::FaultKind::kLinkFlap, site);
  }
  corrupt_rng_.seed(plane.spec().seed ^ stats::fnv1a(site) ^ 0x5deece66dull);
}

std::int64_t Link::phy_jitter_ps() {
  switch (cable_.jitter) {
    case PhyJitter::kNone:
      return 0;
    case PhyJitter::kTenGBaseT: {
      // Block-code alignment variance (Section 6.1): zero-median, more than
      // 99.5 % of frames within +-6.4 ns, extreme range 64 ns (+-32 ns).
      // Steps of 6.4 ns (one PHY symbol group).
      static constexpr double kWeights[] = {
          0.600,    // 0
          0.1985,   // +-6.4 (each)
          0.0006,   // +-12.8
          0.0003,   // +-19.2
          0.00005,  // +-25.6
          0.00005,  // +-32
      };
      double x = stats::canonical(rng_) - kWeights[0];
      if (x < 0) return 0;
      const std::int64_t sign = (rng_() & 1) ? 1 : -1;
      for (int step = 1; step <= 5; ++step) {
        x -= 2 * kWeights[step];
        if (x < 0) return sign * step * 6'400;
      }
      return sign * static_cast<std::int64_t>(kMaxPhyJitterPs);
    }
  }
  return 0;
}

void Link::begin_flap(sim::SimTime now_ps, double down_ps_param) {
  carrier_up_ = false;
  ++flaps_;
  from_.set_link_state(false);
  const auto down_ps =
      down_ps_param > 0 ? static_cast<sim::SimTime>(down_ps_param) : kDefaultFlapDownPs;
  plane_->events()->schedule_at(now_ps + down_ps, [this] {
    carrier_up_ = true;
    from_.set_link_state(true);
  });
}

void Link::deliver(nic::Frame frame, sim::SimTime arrival_ps) {
  ++delivered_;
  to_.deliver_frame(std::move(frame), arrival_ps);
}

void Link::corrupt_frame(nic::Frame& frame) {
  // Copy-on-corrupt: payloads are shared (template frames, interned gap
  // frames), so the wire damages a private copy. Flip one byte to a
  // guaranteed-different value; the FCS no longer matches, and the flip may
  // have made or unmade a PTP event message.
  auto bytes = std::make_shared<std::vector<std::uint8_t>>(*frame.data);
  const std::size_t pos = corrupt_rng_() % bytes->size();
  (*bytes)[pos] ^= static_cast<std::uint8_t>(1 + corrupt_rng_() % 255);
  frame.ptp = nic::ptp_event_of(*bytes);
  frame.data = std::move(bytes);
  frame.fcs_valid = false;
}

void Link::on_frame(nic::Frame frame, sim::SimTime tx_start_ps) {
  ++frames_;
  if (!carrier_up_) {
    // Carrier is down mid-flap: the frame vanishes on the dead wire.
    ++flap_drops_;
    if (rtt_ != nullptr && frame.tx_stamp_ps != 0) rtt_->note_dropped();
    return;
  }
  if (fp_flap_.installed()) {
    if (const auto* rule = fp_flap_.fire(tx_start_ps); rule != nullptr) {
      begin_flap(tx_start_ps, rule->param);
      ++flap_drops_;  // the frame that hit the dying carrier is lost too
      if (rtt_ != nullptr && frame.tx_stamp_ps != 0) rtt_->note_dropped();
      return;
    }
  }
  if (fp_loss_.installed() && fp_loss_.fire(tx_start_ps) != nullptr) {
    ++fault_drops_;
    // Lost stamps count as drops, not a silently smaller population.
    if (rtt_ != nullptr && frame.tx_stamp_ps != 0) rtt_->note_dropped();
    return;
  }
  const std::int64_t delay = static_cast<std::int64_t>(cable_.k_ps + cable_.propagation_ps()) +
                             phy_jitter_ps();
  sim::SimTime arrival = tx_start_ps + static_cast<sim::SimTime>(delay);

  if (!fp_corrupt_.installed() && !fp_reorder_.installed() && !fp_dup_.installed()) {
    deliver(std::move(frame), arrival);
    return;
  }

  if (fp_corrupt_.installed() && fp_corrupt_.fire(tx_start_ps) != nullptr) {
    corrupt_frame(frame);
    ++corrupted_;
  }
  if (fp_reorder_.installed()) {
    if (const auto* rule = fp_reorder_.fire(tx_start_ps); rule != nullptr) {
      // Hold the frame back so later frames overtake it.
      arrival += rule->param > 0 ? static_cast<sim::SimTime>(rule->param)
                                 : kDefaultReorderHoldPs;
      ++reordered_;
    }
  }
  deliver(frame, arrival);
  if (fp_dup_.installed() && fp_dup_.fire(tx_start_ps) != nullptr) {
    // The duplicate follows as a separate frame, one frame time behind.
    deliver(frame, arrival + frame.wire_bytes() * to_.byte_time_ps());
    ++duplicated_;
    // A duplicated stamp is one more in-flight stamp the receive side will
    // see (or drop); without this the conservation ledger would go negative.
    if (rtt_ != nullptr && frame.tx_stamp_ps != 0) rtt_->note_duplicated();
  }
}

}  // namespace moongen::wire
