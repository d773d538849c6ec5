#include "nic/port.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <string>

#include "proto/packet_view.hpp"

namespace moongen::nic {

namespace {

constexpr sim::SimTime align_up(sim::SimTime t, sim::SimTime grid) {
  return (t + grid - 1) / grid * grid;
}

// PTP packet filter (Section 6): which message types are timestamped.
// MoonGen's sampling trick sets the PTP type of background packets to a
// value outside this mask.
/// Bitmask over PtpMessageType values 0-15: the event messages.
constexpr std::uint32_t kPtpMessageTypeMask = 0x0f;
constexpr std::uint8_t kPtpVersion = 2;
constexpr std::uint16_t kPtpUdpPort = 319;

// A timer-wheel slot must be shorter than the shortest frame on the fastest
// link: a TX completion or pacing wake one frame later then lands in a later
// slot (an O(1) chain push) instead of a sorted insert into the slot being
// drained.
static_assert(sim::EventQueue::kSlotWidth <
                  sim::byte_time_ps(40'000) * proto::wire_size(proto::kMinFrameSize),
              "wheel slots must be shorter than a minimum frame at 40 GbE");

/// A speed the chip cannot run would divide by zero in the byte time or
/// give a zero pacing tick.
std::uint64_t checked_link_mbit(const ChipSpec& spec, std::uint64_t link_mbit) {
  if (link_mbit == 0 || link_mbit > spec.max_link_mbit)
    throw std::invalid_argument("Port: " + spec.name + " cannot run at " +
                                std::to_string(link_mbit) + " Mbit/s (1.." +
                                std::to_string(spec.max_link_mbit) + ")");
  return link_mbit;
}

}  // namespace

// ---------------------------------------------------------------------------
// TxQueueModel
// ---------------------------------------------------------------------------

bool TxQueueModel::post(Frame frame) {
  if (mem_ring_.size() >= ring_capacity_) return false;
  mem_ring_.push_back(std::move(frame));
  port_->notify_tx_work(index_);
  return true;
}

void TxQueueModel::set_rate_wire_mbit(double wire_mbit) {
  rate_wire_mbit_ = wire_mbit;
  pacing_initialized_ = false;
}

void TxQueueModel::set_rate_mpps(double mpps, std::size_t frame_size) {
  const double wire_bits = static_cast<double>(proto::wire_size(frame_size)) * 8.0;
  set_rate_wire_mbit(mpps * wire_bits);  // Mpps * bits = Mbit/s
}

void TxQueueModel::set_refill(std::function<Frame()> generator) {
  refill_ = std::move(generator);
  if (port_ != nullptr) port_->notify_tx_work(index_);
}

void TxQueueModel::set_fifo_capacity(std::size_t frames) {
  fifo_capacity_frames_ = frames;
  fifo_.set_capacity(frames);
  if (port_ != nullptr) port_->update_engaged(*this);
}

// ---------------------------------------------------------------------------
// RxQueueModel
// ---------------------------------------------------------------------------

std::size_t RxQueueModel::drain_into(std::vector<Entry>& out, std::size_t max) {
  const std::size_t n = std::min(max, ring_.size());
  out.reserve(out.size() + n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(ring_.pop_front());
  return n;
}

// ---------------------------------------------------------------------------
// Port
// ---------------------------------------------------------------------------

Port::Port(sim::EventQueue& events, ChipSpec spec, std::uint64_t link_mbit, std::uint64_t seed)
    : events_(events),
      spec_(std::move(spec)),
      link_mbit_(checked_link_mbit(spec_, link_mbit)),
      byte_time_ps_(sim::byte_time_ps(link_mbit_)),
      rng_(seed),
      engaged_(static_cast<std::size_t>(spec_.num_queues)),
      ptp_clock_({.increment_ps = spec_.ptp_increment_ps,
                  .phase_step_ps = spec_.ptp_phase_step_ps},
                 seed ^ 0x9e3779b97f4a7c15ull) {
  // The pacing clock frequency scales with the link speed (Section 7.3).
  rate_tick_ps_ = spec_.rate_tick_at_max_speed_ps * (spec_.max_link_mbit / link_mbit_);
  tx_queues_.reserve(static_cast<std::size_t>(spec_.num_queues));
  rx_queues_.reserve(static_cast<std::size_t>(spec_.num_queues));
  for (int i = 0; i < spec_.num_queues; ++i) {
    auto txq = std::make_unique<TxQueueModel>();
    txq->port_ = this;
    txq->index_ = i;
    tx_queues_.push_back(std::move(txq));
    rx_queues_.push_back(std::make_unique<RxQueueModel>());
  }
}

void Port::notify_tx_work(int queue_index) {
  auto& q = *tx_queues_[static_cast<std::size_t>(queue_index)];
  update_engaged(q);
  if (!q.mem_ring_.empty()) schedule_fetch(q);
  if (q.refill_) try_transmit();
}

void Port::schedule_fetch(TxQueueModel& q) {
  if (q.fetch_scheduled_) return;
  q.fetch_scheduled_ = true;
  // The software cannot control when the NIC fetches the descriptor: PCIe
  // latency plus arbitration jitter (the root cause of software rate
  // control imprecision, Section 7.1).
  const sim::SimTime jitter =
      dma_.jitter_ps > 0 ? rng_() % dma_.jitter_ps : 0;
  events_.schedule_in_inline(dma_.latency_ps + jitter,
                             [this, &q, at = events_.now()] { fetch_descriptors(q, at); });
}

void Port::fetch_descriptors(TxQueueModel& q, sim::SimTime scheduled_ps) {
  q.fetch_scheduled_ = false;
  // A batch in flight has taken frames from the FIFO that a per-frame run
  // pops only at their own start; the read sees them where that run would.
  const std::size_t held = q.fifo_.size() + unpopped_batch_frames(q, scheduled_ps);
  std::size_t moved = 0;
  while (!q.mem_ring_.empty() && held + moved < q.fifo_capacity_frames_ &&
         moved < dma_.fetch_batch) {
    q.fifo_.push_back(q.mem_ring_.pop_front());
    ++moved;
  }
  if (!q.mem_ring_.empty()) {
    q.fetch_scheduled_ = true;
    events_.schedule_in_inline(dma_.fetch_interval_ps,
                               [this, &q, at = events_.now()] { fetch_descriptors(q, at); });
  }
  try_transmit();
}

std::size_t Port::unpopped_batch_frames(const TxQueueModel& q, sim::SimTime scheduled_ps) const {
  if (&q != batch_queue_) return 0;
  // Pops run in frame order, so the unpopped frames are a suffix. At a tie
  // the event scheduled first runs first, and a read scheduled at the
  // instant the pop's event was counts as the first.
  const sim::SimTime now = events_.now();
  std::size_t n = 0;
  for (auto it = batch_pops_.rbegin(); it != batch_pops_.rend(); ++it, ++n) {
    if (it->at < now || (it->at == now && it->scheduled < scheduled_ps)) break;
  }
  return n;
}

void Port::try_transmit() {
  if (serializer_busy_ || !link_up_) return;
  const sim::SimTime now = events_.now();
  const auto n = static_cast<std::size_t>(spec_.num_queues);
  const auto start = static_cast<std::size_t>(rr_next_);
  sim::SimTime earliest_blocked = UINT64_MAX;
  // Round robin from rr_next_ over the engaged queues only: [start, n), then
  // [0, start). An idle queue would be skipped anyway. engaged_ is re-read
  // at every step, so queues a refill source engages or idles mid-scan are
  // seen exactly as a walk over every queue would see them.
  for (const auto& [lo, hi] : {std::pair{start, n}, std::pair{std::size_t{0}, start}}) {
    for (std::size_t idx = engaged_.find_next(lo); idx < hi; idx = engaged_.find_next(idx + 1)) {
      ++arbiter_visits_;
      auto& q = *tx_queues_[idx];
      // Pull-on-demand: generate exactly the frame about to be considered,
      // at the time it is considered. Prefilling the FIFO to capacity here
      // would run the generator a whole FIFO ahead of the wire, so a frame
      // marked for timestamp sampling (SimLoadGen::mark_next_valid) would
      // reach the wire only after the pre-generated backlog drained — and
      // batched and unbatched runs would sample different packets.
      if (q.fifo_.empty() && q.refill_) {
        q.fifo_.push_back(q.refill_());
        update_engaged(q);
      }
      if (q.fifo_.empty()) continue;
      if (q.next_allowed_ps_ <= now) {
        rr_next_ = static_cast<int>((idx + 1) % n);
        start_transmission(q, batch_limit(q));
        return;
      }
      earliest_blocked = std::min(earliest_blocked, q.next_allowed_ps_);
    }
  }
  if (earliest_blocked != UINT64_MAX) {
    if (!wake_scheduled_ || earliest_blocked < scheduled_wake_ps_) {
      wake_scheduled_ = true;
      scheduled_wake_ps_ = earliest_blocked;
      events_.schedule_at_inline(earliest_blocked, [this, at = earliest_blocked] {
        if (wake_scheduled_ && scheduled_wake_ps_ == at) wake_scheduled_ = false;
        try_transmit();
      });
    }
  }
}

std::size_t Port::batch_limit(const TxQueueModel& q) const {
  // With every other queue empty (no FIFO frames, no in-flight descriptors,
  // no refill source) the round-robin arbiter would pick `q` at every frame
  // boundary anyway.
  if (engaged_.count() != 1) return 1;
  // An uncontrolled queue batches continuation frames only: the first frame
  // after an idle wire goes alone, so a queue that engages while it
  // serializes gets its round-robin slot at the very next boundary. A paced
  // queue starts most frames from a pacing wake, so its batches may too.
  if (q.rate_wire_mbit_ <= 0.0 && events_.now() != last_busy_end_) return 1;
  return tx_batch_frames_;
}

void Port::start_transmission(TxQueueModel& q, std::size_t max_frames) {
  serializer_busy_ = true;
  const sim::SimTime now = events_.now();
  // Transmissions start aligned to the MAC clock grid (the MAC and the
  // timestamp unit share one clock, Section 6.1) — except back-to-back
  // continuation frames, which follow immediately: real MACs absorb the
  // alignment into the inter-frame gap (deficit idle count), so line rate
  // is exact.
  sim::SimTime t0 = now == last_busy_end_ ? now : align_up(now, spec_.mac_cycle_ps);
  // A paced batch ends before anything its own frames cause can reach this
  // port: an RX stamp, a Timestamper barrier, a reply.
  const sim::SimTime reach = q.rate_wire_mbit_ <= 0.0
                                 ? UINT64_MAX
                                 : t0 + (sink_ != nullptr ? sink_->min_delay_ps() : 0);
  const sim::SimTime target = events_.run_target();
  batch_queue_ = &q;
  batch_pops_.clear();
  sim::SimTime popped_ps = now;  // when a per-frame run pops the current frame
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  // One event serializes the whole batch. The sink gets every frame now,
  // with its true start time: a link only schedules absolute-time arrivals
  // from it, never an event in the past, so wire and RX timestamps equal
  // the per-frame path's (PortBatching.WireTimestampsMatchUnbatched).
  for (;;) {
    Frame frame = q.fifo_.pop_front();
    // TX PTP timestamping, late in the transmit path: the register holds
    // one timestamp and must be read back before the next one is taken.
    if (!tx_stamp_register_.has_value() && frame_matches_ptp_filter(frame)) {
      tx_stamp_register_ = ptp_clock_.read(t0);
    }
    stamp_departure(frame, t0);
    apply_rate_limit(q, frame, t0);
    const std::uint64_t wire = frame.wire_bytes();
    const sim::SimTime end = t0 + wire * byte_time_ps_;
    if (sink_ != nullptr) sink_->on_frame(std::move(frame), t0);
    ++frames;
    bytes += wire;
    last_busy_end_ = end;
    // A per-frame run takes the next frame at `end`, in this frame's
    // completion event. The batch takes it now only if nothing that run
    // would see by then can differ: the carrier held (a link flap fires
    // inside on_frame), `end` is within the caller's run, before a live
    // barrier and, for a paced queue, before this batch's first effect.
    if (frames == max_frames || !link_up_ || end > target || end >= reach ||
        (tx_batch_barrier_ >= now && end >= tx_batch_barrier_))
      break;
    const bool from_fifo = !q.fifo_.empty();
    if (!from_fifo) {
      if (!q.refill_) break;
      q.fifo_.push_back(q.refill_());
    }
    // It starts at `end` if the limiter allows, else on the MAC grid after
    // the pacing wake at next_allowed, and must end within the run.
    const bool wake = q.next_allowed_ps_ > end;
    const sim::SimTime next = wake ? align_up(q.next_allowed_ps_, spec_.mac_cycle_ps) : end;
    if (next + q.fifo_.front().wire_bytes() * byte_time_ps_ > target) break;
    // The completion event is scheduled when this frame is popped; the
    // wake, at its end.
    const BatchPop pop = wake ? BatchPop{q.next_allowed_ps_, end} : BatchPop{end, popped_ps};
    if (from_fifo) batch_pops_.push_back(pop);
    popped_ps = pop.at;
    t0 = next;
  }
  update_engaged(q);
  // One completion event for the whole run; TX stats move at its end.
  events_.schedule_at_inline(last_busy_end_, [this, frames, bytes] {
    stats_.tx_packets += frames;
    stats_.tx_bytes += bytes;
    serializer_busy_ = false;
    try_transmit();
  });
}

void Port::apply_rate_limit(TxQueueModel& q, const Frame& frame, sim::SimTime tx_start) {
  if (q.rate_wire_mbit_ <= 0.0) {
    q.next_allowed_ps_ = 0;
    return;
  }
  double ideal_gap_ps =
      static_cast<double>(frame.wire_bytes()) * 8e6 / q.rate_wire_mbit_;  // start-to-start

  // Section 7.5: above ~9 Mpps the rate control becomes unpredictable and
  // non-linear; model as erratic gap inflation.
  const double configured_pps = 1e12 / ideal_gap_ps;
  if (configured_pps > spec_.rate_control_reliable_pps) {
    ideal_gap_ps *= stats::uniform_real(rng_, 1.0, 1.6);
  }

  if (!q.pacing_initialized_) {
    q.pacing_initialized_ = true;
    q.next_target_start_ps_ = static_cast<double>(tx_start);
  }
  q.next_target_start_ps_ += ideal_gap_ps;

  // Pacing quantization: two independent quantization stages (credit
  // refresh and arbiter scan), each +-1 internal tick. The tick is 64 ns at
  // GbE and 6.4 ns at 10 GbE, which is why precision improves tenfold at
  // 10 GbE (Section 7.3). The resulting inter-departure spread reproduces
  // Table 4: ~50 % within one tick, everything within +-4 ticks.
  std::uniform_int_distribution<int> u(-1, 1);
  const int noise_ticks = u(rng_) + u(rng_);
  const double next =
      q.next_target_start_ps_ + static_cast<double>(noise_ticks) * static_cast<double>(rate_tick_ps_);
  q.next_allowed_ps_ = next > 0 ? static_cast<sim::SimTime>(next) : 0;
}

PtpEvent ptp_event_of(std::span<const std::uint8_t> bytes) {
  const auto pc = proto::classify(bytes);
  if (!pc.has_value()) return PtpEvent::kNone;
  const bool ethernet = pc->is_ptp_ethernet;
  if (!ethernet && !(pc->is_udp && pc->udp_dst_port == kPtpUdpPort)) return PtpEvent::kNone;
  const std::size_t ptp_offset = ethernet ? pc->l3_offset : pc->l7_offset;
  if (bytes.size() < ptp_offset + 2) return PtpEvent::kNone;
  const std::uint8_t msg_type = bytes[ptp_offset] & 0x0f;
  const std::uint8_t version = bytes[ptp_offset + 1] & 0x0f;
  if (version != kPtpVersion || (kPtpMessageTypeMask & (1u << msg_type)) == 0)
    return PtpEvent::kNone;
  return ethernet ? PtpEvent::kEthernet : PtpEvent::kUdp;
}

bool Port::frame_matches_ptp_filter(const Frame& frame) const {
  // The unit refuses undersized UDP PTP packets (Section 6.4).
  return frame.ptp == PtpEvent::kEthernet ||
         (frame.ptp == PtpEvent::kUdp && frame.frame_size() >= spec_.min_udp_ptp_size);
}

void Port::deliver_frame(Frame frame, sim::SimTime first_bit_ps) {
  const sim::SimTime complete =
      first_bit_ps + (frame.frame_size() + 8) * byte_time_ps_;  // preamble + frame
  // first_bit_ps is recovered from the completion time inside the closure:
  // [this, frame] is 48 bytes, the whole inline buffer.
  events_.schedule_at_inline(complete, [this, frame = std::move(frame)]() mutable {
    const sim::SimTime first_bit_ps = events_.now() - (frame.frame_size() + 8) * byte_time_ps_;
    // Hardware drop of bad-FCS frames and runts: they never reach a receive
    // queue, only the error counter moves (Section 8.1).
    if (!frame.fcs_valid || frame.frame_size() < proto::kMinFrameSize) {
      stats_.crc_errors += 1;
      // A stamped frame corrupted on the wire dies here: account the stamp
      // as dropped, never silently shrink the RTT population.
      if (rtt_ != nullptr && frame.tx_stamp_ps != 0) rtt_->note_dropped();
      return;
    }
    stats_.rx_packets += 1;
    stats_.rx_bytes += frame.frame_size();

    std::uint64_t hw_ts = 0;
    if (spec_.rx_timestamp_all) {
      // 82580: timestamp prepended to every packet buffer, latched early in
      // the receive path.
      hw_ts = ptp_clock_.read(first_bit_ps);
    }
    if (!rx_stamp_register_.has_value() && frame_matches_ptp_filter(frame)) {
      rx_stamp_register_ = ptp_clock_.read(first_bit_ps);
      if (rx_stamp_callback_) rx_stamp_callback_(*rx_stamp_register_);
    }

    // Every accepted frame goes to RX queue 0.
    auto& q = *rx_queues_[0];
    // Injected overflow takes the same path as a genuinely full ring: only
    // the drop counter moves, software sees a gap in the stream. A genuine
    // overflow needs a stored ring, but the injected one models a MAC-FIFO
    // drop and fires in callback-only (sink) mode too — real NICs lose
    // frames under RX pressure whether or not software polls a ring. The
    // full-ring check stays first so stored-mode probe sequences (and thus
    // per-site RNG streams) are unchanged.
    const bool ring_full = q.store_ && q.ring_.size() >= q.ring_capacity_;
    if (ring_full ||
        (fp_rx_overflow_.installed() && fp_rx_overflow_.fire(events_.now()) != nullptr)) {
      stats_.rx_ring_drops += 1;
      if (rtt_ != nullptr && frame.tx_stamp_ps != 0) rtt_->note_dropped();
      return;
    }
    // Always-on RTT plane: every accepted stamped frame is accounted, and
    // measurement endpoints additionally fold arrival - departure into the
    // shard's flow-group histogram. first_bit_ps is the same latch point
    // the PTP RX unit uses, so sampled and always-on paths agree.
    if (rtt_ != nullptr && frame.tx_stamp_ps != 0) {
      rtt_->note_rx_seen();
      if (rtt_record_) {
        const std::uint64_t rtt_ps =
            first_bit_ps > frame.tx_stamp_ps ? first_bit_ps - frame.tx_stamp_ps : 0;
        rtt_->record_ps(frame.flow, rtt_ps);
      }
    }
    RxQueueModel::Entry entry{std::move(frame), events_.now(), hw_ts};
    if (q.store_) {
      if (q.callback_) {
        // Invoke with the local copy: the callback may drain the ring
        // (polling DuT), invalidating anything stored there.
        q.ring_.push_back(entry);
        q.callback_(entry);
      } else {
        q.ring_.push_back(std::move(entry));
      }
    } else if (q.callback_) {
      q.callback_(entry);
    }
  });
}

void Port::bind_telemetry(telemetry::MetricRegistry& registry, const std::string& prefix) {
  telemetry_.open(registry);
  telemetry_.counter(prefix + ".tx_packets", [this] { return stats_.tx_packets; });
  telemetry_.counter(prefix + ".tx_bytes", [this] { return stats_.tx_bytes; });
  telemetry_.counter(prefix + ".rx_packets", [this] { return stats_.rx_packets; });
  telemetry_.counter(prefix + ".rx_bytes", [this] { return stats_.rx_bytes; });
  telemetry_.counter(prefix + ".crc_errors", [this] { return stats_.crc_errors; });
  telemetry_.counter(prefix + ".rx_ring_drops", [this] { return stats_.rx_ring_drops; });
  telemetry_.counter("recover." + prefix + ".link_resume",
                     [this] { return stats_.link_up_events; });
}

void Port::set_link_state(bool up) {
  if (up == link_up_) return;
  link_up_ = up;
  if (up) {
    stats_.link_up_events += 1;
    // Resume: drain everything that queued up during the outage.
    try_transmit();
  } else {
    stats_.link_down_events += 1;
  }
}

void Port::install_faults(fault::FaultPlane& plane, const std::string& site) {
  fp_rx_overflow_ = plane.point(fault::FaultKind::kRxOverflow, site);
}

std::optional<std::uint64_t> Port::read_tx_timestamp() {
  auto v = tx_stamp_register_;
  tx_stamp_register_.reset();
  return v;
}

std::optional<std::uint64_t> Port::read_rx_timestamp() {
  auto v = rx_stamp_register_;
  rx_stamp_register_.reset();
  return v;
}

}  // namespace moongen::nic
