#include "nic/port.hpp"

#include <algorithm>
#include <cmath>

#include "proto/packet_view.hpp"

namespace moongen::nic {

namespace {

constexpr sim::SimTime align_up(sim::SimTime t, sim::SimTime grid) {
  return (t + grid - 1) / grid * grid;
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

std::vector<RxQueueModel::Entry> RxQueueModel::drain(std::size_t max) {
  std::vector<Entry> out;
  drain_into(out, max);
  return out;
}

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
      link_mbit_(link_mbit),
      byte_time_ps_(sim::byte_time_ps(link_mbit)),
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
  events_.schedule_in_inline(dma_.latency_ps + jitter, [this, &q] { fetch_descriptors(q); });
}

void Port::fetch_descriptors(TxQueueModel& q) {
  q.fetch_scheduled_ = false;
  std::size_t moved = 0;
  while (!q.mem_ring_.empty() && q.fifo_.size() < q.fifo_capacity_frames_ &&
         moved < dma_.fetch_batch) {
    q.fifo_.push_back(q.mem_ring_.pop_front());
    ++moved;
  }
  if (!q.mem_ring_.empty()) {
    q.fetch_scheduled_ = true;
    events_.schedule_in_inline(dma_.fetch_interval_ps, [this, &q] { fetch_descriptors(q); });
  }
  try_transmit();
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
        if (batching_allowed(q)) {
          start_batch_transmission(q);
        } else {
          start_transmission(q);
        }
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

bool Port::batching_allowed(const TxQueueModel& q) const {
  if (tx_batch_frames_ <= 1) return false;
  if (q.rate_wire_mbit_ > 0.0) return false;  // pacing gaps: one event per frame
  // Only continuation frames batch: the first frame after an idle wire goes
  // through the one-event path, so a queue that engages while it serializes
  // gets its round-robin slot at the very next boundary.
  if (events_.now() != last_busy_end_) return false;
  // Batch only while `q` (which holds a frame) is the sole engaged queue:
  // with every other queue empty (no FIFO frames, no in-flight descriptors,
  // no refill source) the round-robin arbiter would pick `q` at every frame
  // boundary anyway.
  return engaged_.count() == 1;
}

void Port::start_transmission(TxQueueModel& q) {
  Frame frame = q.fifo_.pop_front();
  update_engaged(q);

  // Transmissions start aligned to the MAC clock grid (the MAC and the
  // timestamp unit share one clock, Section 6.1) — except back-to-back
  // continuation frames, which follow immediately: real MACs absorb the
  // alignment into the inter-frame gap (deficit idle count), so line rate
  // is exact.
  sim::SimTime t0 = events_.now();
  if (t0 != last_busy_end_) t0 = align_up(t0, spec_.mac_cycle_ps);
  serializer_busy_ = true;

  // TX PTP timestamping, late in the transmit path: the register holds one
  // timestamp and must be read back before the next one is taken.
  if (!tx_stamp_register_.has_value() && frame_matches_ptp_filter(frame)) {
    tx_stamp_register_ = ptp_clock_.read(t0);
  }
  stamp_departure(frame, t0);

  apply_rate_limit(q, frame, t0);

  const std::uint64_t wire = frame.wire_bytes();
  const sim::SimTime busy_until = t0 + wire * byte_time_ps_;
  last_busy_end_ = busy_until;
  // The sink gets the frame at serialization start with its true start
  // time, as in the batched path. That time is never before now, so the
  // arrival a link schedules from it is no event into the past.
  if (sink_ != nullptr) sink_->on_frame(frame, t0);
  events_.schedule_at_inline(busy_until, [this, wire] {
    stats_.tx_packets += 1;
    stats_.tx_bytes += wire;
    tm_.tx_packets.add(1);
    tm_.tx_bytes.add(wire);
    serializer_busy_ = false;
    try_transmit();
  });
}

void Port::start_batch_transmission(TxQueueModel& q) {
  serializer_busy_ = true;
  const sim::SimTime now = events_.now();
  sim::SimTime t0 = now;
  if (t0 != last_busy_end_) t0 = align_up(t0, spec_.mac_cycle_ps);
  q.next_allowed_ps_ = 0;  // what apply_rate_limit does on the uncontrolled path

  // Serialize a run of back-to-back frames in ONE engine event. Frame i
  // starts exactly when frame i-1's last wire byte ends — the same instants
  // the one-event-per-frame path produces, because an uncontrolled sole
  // queue continues back-to-back at every completion. The sink is notified
  // at batch start with each frame's true tx_start: the link only schedules
  // absolute-time deliveries from it, so wire and RX timestamps are
  // byte-identical (asserted by PortBatching.WireTimestampsMatchUnbatched).
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  while (frames < tx_batch_frames_) {
    // Batch barrier: a consumer (the Timestamper) has announced an event at
    // `tx_batch_barrier_` that must observe the generator state mid-stream.
    // No frame may *start* at or after the barrier inside this batch; the
    // batch ends there and the per-frame arbitration at the completion event
    // re-reads the (possibly updated) refill source. Frames that merely
    // finish after the barrier are fine — the unbatched path generates them
    // before the barrier event too. A batch starting exactly at the barrier
    // runs after the barrier's own event (scheduled far earlier, so lower
    // sequence number at equal time): its first frame already sees the
    // update, but later frames must still be cut so their refill times match
    // the per-frame path. A barrier before the batch start is stale.
    if (tx_batch_barrier_ >= now && t0 >= tx_batch_barrier_ && (t0 > now || tx_batch_barrier_ > now))
      break;
    if (q.fifo_.empty()) {
      if (!q.refill_) break;
      q.fifo_.push_back(q.refill_());
    }
    Frame frame = q.fifo_.pop_front();
    if (!tx_stamp_register_.has_value() && frame_matches_ptp_filter(frame)) {
      tx_stamp_register_ = ptp_clock_.read(t0);
    }
    stamp_departure(frame, t0);
    const std::uint64_t wire = frame.wire_bytes();
    if (sink_ != nullptr) sink_->on_frame(frame, t0);
    t0 += wire * byte_time_ps_;
    bytes += wire;
    ++frames;
  }

  update_engaged(q);
  last_busy_end_ = t0;  // now the end of the batch's last frame
  // One completion event for the whole run; TX stats move at batch end
  // (bounded skew of tx_batch_frames_ frames vs. the per-frame path).
  events_.schedule_at_inline(t0, [this, frames, bytes] {
    stats_.tx_packets += frames;
    stats_.tx_bytes += bytes;
    tm_.tx_packets.add(frames);
    tm_.tx_bytes.add(bytes);
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
    std::uniform_real_distribution<double> inflate(1.0, 1.6);
    ideal_gap_ps *= inflate(rng_);
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

bool Port::frame_matches_ptp_filter(const Frame& frame) const {
  if (!ptp_filter_.enabled) return false;
  const auto& bytes = *frame.data;
  const auto pc = proto::classify({bytes.data(), bytes.size()});
  if (!pc.has_value()) return false;

  std::size_t ptp_offset = 0;
  if (pc->is_ptp_ethernet) {
    ptp_offset = pc->l3_offset;
  } else if (pc->is_udp && pc->udp_dst_port == ptp_filter_.udp_port) {
    // The unit refuses undersized UDP PTP packets (Section 6.4).
    if (frame.frame_size() < spec_.min_udp_ptp_size) return false;
    ptp_offset = pc->l7_offset;
  } else {
    return false;
  }
  if (bytes.size() < ptp_offset + 2) return false;
  const std::uint8_t msg_type = bytes[ptp_offset] & 0x0f;
  const std::uint8_t version = bytes[ptp_offset + 1] & 0x0f;
  if (version != ptp_filter_.version) return false;
  return (ptp_filter_.message_type_mask & (1u << msg_type)) != 0;
}

void Port::deliver_frame(const Frame& frame, sim::SimTime first_bit_ps) {
  const sim::SimTime complete =
      first_bit_ps + (frame.frame_size() + 8) * byte_time_ps_;  // preamble + frame
  // first_bit_ps is recovered from the completion time inside the closure
  // so [this, frame] stays within the inline buffer (see start_transmission).
  events_.schedule_at_inline(complete, [this, frame]() mutable {
    const sim::SimTime first_bit_ps = events_.now() - (frame.frame_size() + 8) * byte_time_ps_;
    // Hardware drop of bad-FCS frames and runts: they never reach a receive
    // queue, only the error counter moves (Section 8.1).
    if (!frame.fcs_valid || frame.frame_size() < proto::kMinFrameSize) {
      stats_.crc_errors += 1;
      tm_.crc_errors.add(1);
      // A stamped frame corrupted on the wire dies here: account the stamp
      // as dropped, never silently shrink the RTT population.
      if (rtt_ != nullptr && frame.tx_stamp_ps != 0) rtt_->note_dropped();
      return;
    }
    stats_.rx_packets += 1;
    stats_.rx_bytes += frame.frame_size();
    tm_.rx_packets.add(1);
    tm_.rx_bytes.add(frame.frame_size());

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

    // Steering precedence: Flow Director perfect-match rules, then the
    // custom hook, then RSS, else queue 0 (Section 3.3).
    int queue_index = 0;
    const auto verdict = flow_director_.match(frame);
    if (verdict.matched) {
      if (verdict.drop) {  // filtered in hardware
        if (rtt_ != nullptr && frame.tx_stamp_ps != 0) rtt_->note_dropped();
        return;
      }
      queue_index = verdict.queue;
    } else if (steering_) {
      queue_index = steering_(frame);
    } else if (rss_) {
      queue_index = rss_->steer(frame);
    }
    auto& q = *rx_queues_[static_cast<std::size_t>(queue_index)];
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
      tm_.rx_ring_drops.add(1);
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

void Port::bind_telemetry(telemetry::MetricTree& tree, const std::string& prefix) {
  if (tm_.tx_packets.valid()) return;  // already bound; re-seeding would double-count
  tm_.tx_packets = tree.counter(prefix + ".tx_packets");
  tm_.tx_bytes = tree.counter(prefix + ".tx_bytes");
  tm_.rx_packets = tree.counter(prefix + ".rx_packets");
  tm_.rx_bytes = tree.counter(prefix + ".rx_bytes");
  tm_.crc_errors = tree.counter(prefix + ".crc_errors");
  tm_.rx_ring_drops = tree.counter(prefix + ".rx_ring_drops");
  tm_.link_resume = tree.counter("recover." + prefix + ".link_resume");
  // Re-binding mid-run would double-count history; seed the counters with
  // the current totals so registry and PortStats agree from this point on.
  tm_.tx_packets.add(stats_.tx_packets);
  tm_.tx_bytes.add(stats_.tx_bytes);
  tm_.rx_packets.add(stats_.rx_packets);
  tm_.rx_bytes.add(stats_.rx_bytes);
  tm_.crc_errors.add(stats_.crc_errors);
  tm_.rx_ring_drops.add(stats_.rx_ring_drops);
  tm_.link_resume.add(stats_.link_up_events);
}

void Port::set_link_state(bool up) {
  if (up == link_up_) return;
  link_up_ = up;
  if (up) {
    stats_.link_up_events += 1;
    tm_.link_resume.add(1);
    // Resume: drain everything that queued up during the outage.
    try_transmit();
  } else {
    stats_.link_down_events += 1;
  }
  if (link_state_callback_) link_state_callback_(up);
}

void Port::install_faults(fault::FaultPlane& plane, const std::string& site) {
  fp_rx_overflow_ = plane.point(fault::FaultKind::kRxOverflow, site);
}

void Port::enable_rss(int queues, RssHashType type) {
  rss_ = std::make_unique<RssUnit>(queues, type);
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
