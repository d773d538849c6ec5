#include "dut/forwarder.hpp"

namespace moongen::dut {

namespace {

/// IRQ delivery + handler entry until the poll starts.
constexpr sim::SimTime kInterruptLatencyPs = 2'000'000;
/// Fixed kernel path pipeline latency (skb handling, OVS lookup layers)
/// added outside the CPU bottleneck.
constexpr sim::SimTime kBasePipelinePs = 8'000'000;
/// Frames one NAPI poll pass drains.
constexpr std::size_t kPollBudget = 64;

// Dynamic ITR: re-arm gaps per class. The classifier watches for
// back-to-back arrivals (micro-bursts): polls that contain wire-adjacent
// packets push the estimator toward the bulk class and its long re-arm
// gap — this is how bad rate control collapses the DuT's interrupt rate
// (Section 7.4, Figure 7).
constexpr sim::SimTime kItrGapLowestPs = 8'000'000;  // ~125 k int/s ceiling
constexpr sim::SimTime kItrGapLowPs = 40'000'000;    // 25 k int/s
constexpr sim::SimTime kItrGapBulkPs = 120'000'000;  // ~8 k int/s
/// Relative jitter of the re-arm timer and IRQ delivery. Linux's dynamic
/// interrupt adaption [25] re-tunes the throttle per interrupt and OS
/// timers are not cycle-accurate; the resulting variation prevents phase
/// locking between a CBR packet train and the interrupt cadence.
constexpr double kTimerJitter = 0.25;
constexpr double kBurstLowThreshold = 0.15;   ///< b2b-pair share above -> low class
constexpr double kBurstBulkThreshold = 0.45;  ///< b2b-pair share above -> bulk class

}  // namespace

Forwarder::Forwarder(sim::EventQueue& events, nic::Port& in_port, int in_queue,
                     nic::Port& out_port, int out_queue, ForwarderConfig config)
    : events_(events),
      in_port_(in_port),
      rx_(in_port.rx_queue(in_queue)),
      tx_(out_port.tx_queue(out_queue)),
      service_ps_(static_cast<sim::SimTime>(config.cycles_per_packet / config.cpu_hz * 1e12)),
      rng_(config.seed) {
  rx_.set_callback([this](const nic::RxQueueModel::Entry&) { packet_arrived(); });
}

sim::SimTime Forwarder::current_itr_gap() const {
  switch (itr_class_) {
    case 0:
      return kItrGapLowestPs;
    case 1:
      return kItrGapLowPs;
    default:
      return kItrGapBulkPs;
  }
}

void Forwarder::packet_arrived() {
  if (polling_ || interrupt_scheduled_) return;
  interrupt_scheduled_ = true;
  // The interrupt fires after IRQ delivery latency, but no earlier than the
  // ITR re-arm time relative to the previous interrupt. Both delays carry
  // OS-timer jitter, which keeps a CBR packet train from phase-locking to
  // the interrupt cadence.
  const auto jitter = [this] {
    return stats::uniform_real(rng_, 1.0 - kTimerJitter, 1.0 + kTimerJitter);
  };
  const auto gap = static_cast<sim::SimTime>(static_cast<double>(current_itr_gap()) * jitter());
  const auto lat = static_cast<sim::SimTime>(static_cast<double>(kInterruptLatencyPs) * jitter());
  const sim::SimTime earliest = last_interrupt_ps_ + gap;
  const sim::SimTime at = std::max(events_.now() + lat, earliest);
  events_.schedule_at_inline(at, [this] { fire_interrupt(); });
}

void Forwarder::fire_interrupt() {
  interrupt_scheduled_ = false;
  if (polling_) return;  // a poll loop took over in the meantime
  ++interrupts_;
  last_interrupt_ps_ = events_.now();
  polling_ = true;
  poll();
}

void Forwarder::install_faults(fault::FaultPlane& plane, const std::string& site) {
  fp_stall_ = plane.point(fault::FaultKind::kStall, site);
}

void Forwarder::poll() {
  if (fp_stall_.installed()) {
    if (const auto* rule = fp_stall_.fire(events_.now()); rule != nullptr) {
      // The DuT core is off doing something else; the poll resumes after
      // the stall and finds a fuller ring (latency spike, Figure 11 style).
      ++stalls_;
      const auto stall_ps =
          rule->param > 0 ? static_cast<sim::SimTime>(rule->param) : sim::SimTime{50'000'000};
      events_.schedule_in(stall_ps, [this] { poll(); });
      return;
    }
  }
  ++polls_;
  poll_scratch_.clear();
  rx_.drain_into(poll_scratch_, kPollBudget);
  auto& entries = poll_scratch_;

  sim::SimTime t = events_.now();
  std::size_t pairs = 0;
  for (auto& entry : entries) {
    // Back-to-back detection: arrival spacing equal to the frame's own
    // wire time (within one MAC cycle) marks a micro-burst.
    const sim::SimTime wire_ps = entry.frame.wire_bytes() * in_port_.byte_time_ps();
    if (last_arrival_ps_ != 0 &&
        entry.complete_ps - last_arrival_ps_ <= wire_ps + in_port_.spec().mac_cycle_ps) {
      ++pairs;
    }
    last_arrival_ps_ = entry.complete_ps;

    t += service_ps_;  // single core: packets are processed sequentially
    const sim::SimTime out_time = t + kBasePipelinePs;
    events_.schedule_at_inline(out_time, [this, frame = std::move(entry.frame)]() mutable {
      tx_.post(std::move(frame));
    });
    ++forwarded_;
  }
  if (!entries.empty()) update_itr(pairs, entries.size());

  const bool budget_exhausted = entries.size() >= kPollBudget;
  if (budget_exhausted || rx_.pending() > 0) {
    // Stay in polling mode (interrupts remain disabled); next pass after
    // this batch has been processed.
    events_.schedule_at_inline(t, [this] { poll(); });
    return;
  }
  // Ring drained: leave polling, re-enable interrupts at the end of the
  // processing pass.
  events_.schedule_at(t, [this] {
    polling_ = false;
    if (rx_.pending() > 0) packet_arrived();  // packets raced in meanwhile
  });
}

void Forwarder::update_itr(std::size_t pairs, std::size_t packets) {
  constexpr double kAlpha = 0.2;  // EWMA weight of the newest poll
  const double share = static_cast<double>(pairs) / static_cast<double>(packets);
  burst_share_ewma_ = (1.0 - kAlpha) * burst_share_ewma_ + kAlpha * share;
  if (burst_share_ewma_ > kBurstBulkThreshold) {
    itr_class_ = 2;
  } else if (burst_share_ewma_ > kBurstLowThreshold) {
    itr_class_ = 1;
  } else {
    itr_class_ = 0;
  }
}

}  // namespace moongen::dut
