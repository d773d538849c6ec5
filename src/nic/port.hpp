// Event-driven behavioural model of a NIC port.
//
// Models the TX/RX paths of the Intel NICs the paper builds on:
//
//   software --post()--> memory descriptor ring --DMA--> on-chip FIFO
//       --per-queue HW rate limiter--> MAC serialization --> wire sink
//
//   wire --deliver_frame()--> FCS check (hardware drop of invalid frames)
//       --> PTP timestamp unit / RX-all timestamping --> RX ring 0
//
// The model reproduces exactly the hardware behaviours the paper's
// experiments depend on:
//  * the asynchronous push-pull TX model that makes software rate control
//    imprecise (Section 7.1): DMA fetches add jitter the software cannot
//    control;
//  * per-queue hardware rate limiting with quantized pacing (Section 7.2),
//    including the non-linear behaviour above ~9 Mpps (Section 7.5);
//  * PTP register timestamping with single-packet-in-flight semantics and
//    RX-all timestamping on the 82580 (Section 6);
//  * early hardware drop of frames with a bad FCS, incrementing only an
//    error counter (Section 8.1).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "fault/fault.hpp"
#include "membuf/ring.hpp"
#include "nic/chip.hpp"
#include "nic/frame.hpp"
#include "sim/bitmap.hpp"
#include "sim/event_queue.hpp"
#include "sim/ptp_clock.hpp"
#include "stats/mt19937_64.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/rtt_plane.hpp"

namespace moongen::nic {

class Port;

/// Destination of transmitted frames (implemented by wire::Link).
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  /// Called when the MAC starts serializing `frame` (for a batch, at batch
  /// start for each of its frames). `tx_start_ps` is the time the first
  /// preamble bit leaves the MAC, never before the engine's current time:
  /// a link schedules the frame's arrival from it, and no event may land in
  /// the past. The frame is the sink's to keep: the port moves it in, so
  /// carrying it to the receiver costs no payload reference count.
  virtual void on_frame(Frame frame, sim::SimTime tx_start_ps) = 0;
  /// Least time from a frame's `tx_start_ps` to the first event anything it
  /// causes can run at (its arrival, a stamp, a reply). A paced batch pulls
  /// frames only within this span of its first frame's start; 0, the
  /// default, sends paced frames one per event.
  [[nodiscard]] virtual sim::SimTime min_delay_ps() const { return 0; }
};

struct PortStats {
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;  // wire bytes including overhead
  std::uint64_t rx_packets = 0;
  std::uint64_t rx_bytes = 0;
  /// Frames dropped in hardware before queue assignment (bad FCS / runts).
  std::uint64_t crc_errors = 0;
  /// Frames dropped because the RX ring was full.
  std::uint64_t rx_ring_drops = 0;
  /// Carrier transitions (injected link flaps).
  std::uint64_t link_down_events = 0;
  std::uint64_t link_up_events = 0;
};

/// One hardware transmit queue.
class TxQueueModel {
 public:
  /// Posts a frame descriptor from "software" (tail-pointer write). The
  /// frame is fetched by DMA asynchronously. Returns false if the
  /// descriptor ring is full.
  bool post(Frame frame);

  /// Number of free descriptor slots.
  [[nodiscard]] std::size_t ring_free() const { return ring_capacity_ - mem_ring_.size(); }

  /// Configures the hardware rate limiter to `wire_mbit` Mbit/s measured on
  /// the wire (including preamble/IFG). 0 disables rate control.
  void set_rate_wire_mbit(double wire_mbit);

  /// Convenience: configures the limiter for `mpps` packets/s of
  /// `frame_size`-byte frames.
  void set_rate_mpps(double mpps, std::size_t frame_size);

  /// Installs an infinite frame supply: the queue refills itself whenever
  /// its FIFO drains, modelling software that keeps the ring full (the only
  /// sensible mode under hardware rate control, Section 7.2).
  void set_refill(std::function<Frame()> generator);

  /// Bounds the on-chip FIFO lookahead (frames pulled from the refill
  /// source ahead of transmission). A small value keeps the generator's
  /// stream marking (timestamp sampling) responsive at low paced rates.
  void set_fifo_capacity(std::size_t frames);

  [[nodiscard]] double rate_wire_mbit() const { return rate_wire_mbit_; }

 private:
  friend class Port;

  /// True if this queue could put a frame on the wire now or in the future
  /// without further software action: the port's engaged bitmap mirrors it.
  [[nodiscard]] bool engaged() const {
    return !fifo_.empty() || !mem_ring_.empty() || static_cast<bool>(refill_);
  }

  Port* port_ = nullptr;
  int index_ = 0;
  std::size_t ring_capacity_ = 1024;
  membuf::BoundedRing<Frame> mem_ring_{1024};  // descriptors in main memory
  membuf::BoundedRing<Frame> fifo_{128};       // frames fetched into the on-chip FIFO
  std::size_t fifo_capacity_frames_ = 128;
  bool fetch_scheduled_ = false;

  double rate_wire_mbit_ = 0.0;      // 0 = uncontrolled
  double next_target_start_ps_ = 0;  // pacing target (exact accumulation)
  sim::SimTime next_allowed_ps_ = 0;
  bool pacing_initialized_ = false;

  std::function<Frame()> refill_;
};

/// One hardware receive queue.
class RxQueueModel {
 public:
  struct Entry {
    Frame frame;
    /// True arrival time of the last bit (when the frame is complete).
    sim::SimTime complete_ps = 0;
    /// Hardware RX timestamp (rx_timestamp_all chips): quantized PTP clock
    /// reading latched early in the receive path. 0 if not stamped.
    std::uint64_t hw_timestamp = 0;
  };

  using Callback = std::function<void(const Entry&)>;

  /// Invoked for every frame placed into the ring (used to wire up
  /// recorders and the DuT model).
  void set_callback(Callback cb) { callback_ = std::move(cb); }

  /// Removes up to `max` frames from the ring (app-side recv) and appends
  /// them to `out`, which a polling caller clears and reuses, like a
  /// driver's RX burst array. Returns the number of entries appended.
  std::size_t drain_into(std::vector<Entry>& out, std::size_t max = SIZE_MAX);

  [[nodiscard]] std::size_t pending() const { return ring_.size(); }
  void set_ring_capacity(std::size_t n) {
    ring_capacity_ = n;
    ring_.set_capacity(n);
  }

  /// Sink mode: entries go to the callback only and are not stored in the
  /// ring (for measurement taps like the inter-arrival recorder that would
  /// otherwise have to drain continuously).
  void set_store(bool store) { store_ = store; }

 private:
  friend class Port;

  membuf::BoundedRing<Entry> ring_{4096};
  std::size_t ring_capacity_ = 4096;
  bool store_ = true;
  Callback callback_;
};

/// Timing parameters of the PCIe/DMA path.
struct DmaTiming {
  sim::SimTime latency_ps = 400'000;        ///< descriptor fetch round trip (400 ns)
  sim::SimTime jitter_ps = 300'000;         ///< uniform extra delay (0..300 ns)
  std::size_t fetch_batch = 32;             ///< descriptors moved per DMA read
  sim::SimTime fetch_interval_ps = 100'000; ///< pause between chained fetches
};

class Port {
 public:
  /// Throws std::invalid_argument when `link_mbit` is 0 or above the
  /// chip's max_link_mbit.
  Port(sim::EventQueue& events, ChipSpec spec, std::uint64_t link_mbit, std::uint64_t seed);

  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  /// The engine this port's events run on (its shard in a parallel run).
  [[nodiscard]] sim::EventQueue& events() { return events_; }
  [[nodiscard]] const ChipSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint64_t link_mbit() const { return link_mbit_; }
  [[nodiscard]] sim::SimTime byte_time_ps() const { return byte_time_ps_; }

  [[nodiscard]] TxQueueModel& tx_queue(int i) { return *tx_queues_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] RxQueueModel& rx_queue(int i) { return *rx_queues_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] int num_queues() const { return spec_.num_queues; }

  void set_tx_sink(FrameSink* sink) { sink_ = sink; }
  [[nodiscard]] FrameSink* tx_sink() const { return sink_; }

  /// Called by the attached link when a frame's first bit reaches this
  /// port's PHY (after cable propagation and (de)modulation).
  void deliver_frame(Frame frame, sim::SimTime first_bit_ps);

  [[nodiscard]] const PortStats& stats() const { return stats_; }

  /// Registers readers of PortStats as `<prefix>.tx_packets`, `.tx_bytes`,
  /// `.rx_packets`, `.rx_bytes`, `.crc_errors`, `.rx_ring_drops` and
  /// `recover.<prefix>.link_resume` (carrier-up transitions after an
  /// outage).
  void bind_telemetry(telemetry::MetricRegistry& registry, const std::string& prefix);

  /// Attaches this port to the always-on RTT plane: `rtt` is the RttShard
  /// of this port's simulation shard. The TX path stamps departures on
  /// every valid frame (once — forwarded frames keep their stamp) and the
  /// RX path accounts every stamped frame as seen or dropped. With
  /// `record` set, accepted stamped frames additionally fold their RTT
  /// into the shard's histograms — enable it on measurement endpoints
  /// (the generator's receive port), not on intermediate DuT ports.
  void attach_rtt(telemetry::RttShard* rtt, bool record) {
    rtt_ = rtt;
    rtt_record_ = record;
  }
  [[nodiscard]] bool rtt_attached() const { return rtt_ != nullptr; }

  // --- link state (propagated from the attached wire on carrier faults) ----
  /// Carrier up/down. Down pauses the transmit path (frames queue in the
  /// descriptor rings and FIFOs — backpressure to software); the up edge
  /// resumes transmission and counts as a recovery.
  void set_link_state(bool up);
  [[nodiscard]] bool link_up() const { return link_up_; }

  /// Arms this port's fault sites (currently: RX-ring overflow) against
  /// `plane` under the given site name.
  void install_faults(fault::FaultPlane& plane, const std::string& site);

  [[nodiscard]] sim::PtpClock& ptp_clock() { return ptp_clock_; }

  // --- PTP timestamp registers (single-slot, read-to-clear; Section 6) -----
  /// Reads and clears the TX timestamp register. Until read, no further TX
  /// packet is timestamped.
  std::optional<std::uint64_t> read_tx_timestamp();
  std::optional<std::uint64_t> read_rx_timestamp();

  /// Invoked (in the simulation) whenever the RX timestamp register latches
  /// a value — the model's stand-in for the interrupt/poll a driver uses to
  /// learn that a timestamp is available.
  void set_rx_stamp_callback(std::function<void(std::uint64_t)> cb) {
    rx_stamp_callback_ = std::move(cb);
  }

  DmaTiming& dma_timing() { return dma_; }

  /// True while the MAC is serializing a frame.
  [[nodiscard]] bool transmitting() const { return serializer_busy_; }

  /// TX queues the arbiter has visited over the port's lifetime. It visits
  /// engaged queues only, each at most once per arbitration, so this grows
  /// with the engaged queues, not with num_queues().
  [[nodiscard]] std::uint64_t arbiter_visits() const { return arbiter_visits_; }

  /// Maximum frames serialized per engine event (see DESIGN.md, "Batched
  /// TX"). Wire and RX timestamps, and every count read after run_until
  /// returns, are identical for any value; during a run, sinks and TX
  /// counters observe frames at batch granularity. 1 sends one frame per
  /// event.
  void set_tx_batch_frames(std::size_t n) { tx_batch_frames_ = n > 0 ? n : 1; }
  [[nodiscard]] std::size_t tx_batch_frames() const { return tx_batch_frames_; }

  /// Announces that an event at absolute time `t` must observe generator
  /// state mid-stream (e.g. the Timestamper arming a sample): no batch takes
  /// a frame that a per-frame run would pull at or after `t`, so batched and
  /// unbatched runs pick up refill-source updates made at `t` on exactly the
  /// same frame. A barrier before now is ignored; re-arm before each such
  /// event.
  void set_tx_batch_barrier(sim::SimTime t) { tx_batch_barrier_ = t; }

 private:
  friend class TxQueueModel;

  void notify_tx_work(int queue_index);
  /// Re-reads `q`'s engaged state into engaged_; called wherever its FIFO,
  /// descriptor ring or refill source changes.
  void update_engaged(const TxQueueModel& q) {
    engaged_.assign(static_cast<std::size_t>(q.index_), q.engaged());
  }
  void schedule_fetch(TxQueueModel& q);
  /// A DMA read scheduled at `scheduled_ps`.
  void fetch_descriptors(TxQueueModel& q, sim::SimTime scheduled_ps);
  /// Frames of the batch in flight that `q`'s FIFO would still hold now in
  /// a per-frame run, as a DMA read scheduled at `scheduled_ps` sees it.
  [[nodiscard]] std::size_t unpopped_batch_frames(const TxQueueModel& q,
                                                  sim::SimTime scheduled_ps) const;
  void try_transmit();
  /// Serializes `q`'s FIFO head and up to `max_frames - 1` more frames in
  /// one engine event, each starting where the per-frame path would start it.
  void start_transmission(TxQueueModel& q, std::size_t max_frames);
  /// Frames `q`, which holds a frame, may send in one event: 1 unless `q` is
  /// the one engaged queue (arbitration is then a no-op) and, uncontrolled,
  /// continues a frame that just ended.
  [[nodiscard]] std::size_t batch_limit(const TxQueueModel& q) const;
  void apply_rate_limit(TxQueueModel& q, const Frame& frame, sim::SimTime tx_start);
  [[nodiscard]] bool frame_matches_ptp_filter(const Frame& frame) const;
  /// RTT-plane departure stamping at serialization start (same latch point
  /// as the PTP TX unit). Stamps a valid frame once; a frame that already
  /// carries a stamp (DuT re-transmission) keeps it and counts as
  /// forwarded. No-op without an attached plane — the frame metadata and
  /// every counter stay exactly as before.
  void stamp_departure(Frame& frame, sim::SimTime t0) {
    if (rtt_ == nullptr || !frame.fcs_valid) return;
    if (frame.tx_stamp_ps == 0) {
      // t0 == 0 would read as "unstamped"; nudge by 1 ps (invisible at the
      // plane's ns resolution).
      frame.tx_stamp_ps = t0 == 0 ? 1 : t0;
      rtt_->note_tx_stamped();
    } else {
      rtt_->note_tx_forwarded();
    }
  }

  sim::EventQueue& events_;
  ChipSpec spec_;
  std::uint64_t link_mbit_;
  sim::SimTime byte_time_ps_;
  sim::SimTime rate_tick_ps_;
  stats::Mt19937_64 rng_;

  std::vector<std::unique_ptr<TxQueueModel>> tx_queues_;
  std::vector<std::unique_ptr<RxQueueModel>> rx_queues_;
  /// Bit i set while TX queue i is engaged. Arbitration visits only these:
  /// a queue with no FIFO frame, descriptor or refill source has nothing to
  /// offer, so skipping it leaves every pick and wake time unchanged.
  sim::Bitmap engaged_;
  std::uint64_t arbiter_visits_ = 0;
  FrameSink* sink_ = nullptr;

  bool serializer_busy_ = false;
  sim::SimTime last_busy_end_ = UINT64_MAX;  // sentinel: first frame aligns
  bool wake_scheduled_ = false;
  sim::SimTime scheduled_wake_ps_ = 0;
  int rr_next_ = 0;  // round-robin arbiter position
  std::size_t tx_batch_frames_ = 16;
  sim::SimTime tx_batch_barrier_ = 0;
  /// A frame after the first that the last batch took from a FIFO: when a
  /// per-frame run pops it, and when that run schedules the event that does.
  struct BatchPop {
    sim::SimTime at;
    sim::SimTime scheduled;
  };
  const TxQueueModel* batch_queue_ = nullptr;
  std::vector<BatchPop> batch_pops_;
  bool link_up_ = true;
  fault::FaultPoint fp_rx_overflow_;

  PortStats stats_;
  telemetry::RttShard* rtt_ = nullptr;
  bool rtt_record_ = false;
  sim::PtpClock ptp_clock_;
  std::optional<std::uint64_t> tx_stamp_register_;
  std::optional<std::uint64_t> rx_stamp_register_;
  std::function<void(std::uint64_t)> rx_stamp_callback_;
  DmaTiming dma_;
  telemetry::Binding telemetry_;
};

}  // namespace moongen::nic
