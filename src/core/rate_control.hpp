// Rate control: traffic patterns and the CRC-based gap filler.
//
// Section 8 of the paper introduces MoonGen's novel software rate control:
// instead of *waiting* between packets (which modern NICs' asynchronous
// push-pull DMA model executes imprecisely, Section 7.1), the generator
// keeps the transmit queue full at line rate and fills the time between
// valid packets with frames carrying an invalid CRC. The device under test
// drops those in hardware before they reach any receive queue, so the
// arrival pattern of *valid* packets is controlled with byte granularity
// (0.8 ns at 10 GbE).
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "nic/frame.hpp"
#include "nic/port.hpp"
#include "sim/time.hpp"
#include "telemetry/handles.hpp"

namespace moongen::core {

// ---------------------------------------------------------------------------
// Departure patterns
// ---------------------------------------------------------------------------

/// Produces the desired start-to-start spacing between consecutive valid
/// packets.
class DeparturePattern {
 public:
  virtual ~DeparturePattern() = default;
  virtual sim::SimTime next_gap_ps() = 0;
};

/// Constant bit rate: fixed inter-departure time.
class CbrPattern : public DeparturePattern {
 public:
  explicit CbrPattern(double mpps) : gap_ps_(1e6 / mpps) {}
  sim::SimTime next_gap_ps() override {
    // Round-with-carry, matching PoissonPattern's convention: truncation
    // would bias every gap low by up to 1 ps and each departure would lag
    // the ideal schedule by up to a picosecond; rounding centers the error
    // while the accumulator keeps the long-run rate exact.
    acc_ += gap_ps_;
    const auto gap = std::llround(acc_);
    acc_ -= static_cast<double>(gap);
    return gap > 0 ? static_cast<sim::SimTime>(gap) : 0;
  }

 private:
  double gap_ps_;  // 1e12 ps/s / (mpps * 1e6) = 1e6/mpps
  double acc_ = 0;
};

/// Poisson process: exponentially distributed inter-departure times
/// (Section 8.3).
class PoissonPattern : public DeparturePattern {
 public:
  PoissonPattern(double mpps, std::uint64_t seed) : dist_(mpps / 1e6), rng_(seed) {}
  sim::SimTime next_gap_ps() override {
    // Round to the nearest picosecond: truncation would bias the mean
    // inter-departure time low by ~0.5 ps per packet.
    return static_cast<sim::SimTime>(std::llround(dist_(rng_)));  // mean 1e6/mpps ps
  }

 private:
  std::exponential_distribution<double> dist_;  // rate per ps
  std::mt19937_64 rng_;
};

/// Bursts of `burst_size` back-to-back packets at an average rate
/// (l2-bursts.lua).
class BurstPattern : public DeparturePattern {
 public:
  BurstPattern(double avg_mpps, std::size_t burst_size, std::size_t frame_wire_bytes,
               std::uint64_t link_mbit)
      : burst_size_(burst_size),
        b2b_gap_ps_(frame_wire_bytes * sim::byte_time_ps(link_mbit)) {
    const double period_ps = 1e6 / avg_mpps * static_cast<double>(burst_size);
    const double used = static_cast<double>(b2b_gap_ps_) * static_cast<double>(burst_size - 1);
    // Nearest picosecond (clamped at 0 for over-committed bursts); plain
    // truncation would run every burst period slightly hot.
    const auto rest = std::llround(period_ps - used);
    inter_burst_gap_ps_ = rest > 0 ? static_cast<sim::SimTime>(rest) : 0;
  }

  sim::SimTime next_gap_ps() override {
    const bool in_burst = (++position_ % burst_size_) != 0;
    return in_burst ? b2b_gap_ps_ : inter_burst_gap_ps_;
  }

 private:
  std::size_t burst_size_;
  sim::SimTime b2b_gap_ps_;
  sim::SimTime inter_burst_gap_ps_;
  std::size_t position_ = 0;
};

// ---------------------------------------------------------------------------
// CRC-based gap filler (Section 8.1)
// ---------------------------------------------------------------------------

struct GapFillerConfig {
  /// Hardware floor: NICs refuse wire lengths below 33 bytes.
  std::size_t hw_min_wire_len = 33;
  /// MoonGen's default: sub-64 B frames overload the NIC's transmit path
  /// (max 15.6 Mpps), so invalid frames are at least 76 wire bytes.
  std::size_t min_wire_len = 76;
  /// Largest single filler frame (1518 B frame + 20 overhead).
  std::size_t max_wire_len = 1538;
};

/// Translates desired wire gaps (in bytes) into invalid-frame lengths.
/// Gaps that are too short to represent are carried over and added to a
/// later gap — average rate stays exact while short-gap precision degrades
/// (Section 8.4).
class CrcGapFiller {
 public:
  explicit CrcGapFiller(GapFillerConfig config = {}) : cfg_(config) {}

  /// Writes the wire lengths of the invalid frames filling `gap_bytes` of
  /// wire time into `out`, which is cleared first and may stay empty
  /// (back-to-back, or carry-over). A caller that passes the same vector
  /// every time allocates only while its capacity grows.
  void fill(std::size_t gap_bytes, std::vector<std::size_t>& out);

  [[nodiscard]] std::size_t carry_bytes() const { return carry_; }
  [[nodiscard]] std::uint64_t skipped_gaps() const { return skipped_; }
  [[nodiscard]] const GapFillerConfig& config() const { return cfg_; }

 private:
  GapFillerConfig cfg_;
  std::size_t carry_ = 0;
  std::uint64_t skipped_ = 0;
};

// ---------------------------------------------------------------------------
// Simulated load generator
// ---------------------------------------------------------------------------

/// Drives a simulated transmit queue with one of MoonGen's two rate-control
/// mechanisms:
///  * hardware mode: the queue's HW rate limiter paces; the generator just
///    keeps the queue full (Section 7.2);
///  * CRC mode: the queue runs at line rate and the generator interleaves
///    valid packets with invalid filler frames per a DeparturePattern
///    (Section 8).
/// Cache-line aligned: the generator writes its counters for every frame,
/// and generators of different shards are allocated next to each other.
class alignas(64) SimLoadGen {
 public:
  /// Hardware rate control: keep `queue` full of copies of `frame`; pacing
  /// comes from queue.set_rate_*.
  static std::unique_ptr<SimLoadGen> hardware_paced(nic::TxQueueModel& queue, nic::Frame frame);

  /// CRC-based software rate control at line rate.
  static std::unique_ptr<SimLoadGen> crc_paced(nic::TxQueueModel& queue, nic::Frame frame,
                                               std::unique_ptr<DeparturePattern> pattern,
                                               std::uint64_t link_mbit,
                                               GapFillerConfig config = {});

  /// Replaces the valid-frame template (e.g. with a PTP-stampable variant)
  /// for the next `n` valid frames, then reverts. Used by the Timestamper's
  /// stream-sampling mode (Section 6.4).
  void mark_next_valid(nic::Frame stamped, int n = 1);

  /// Labels every valid frame this generator emits with `flow` (the RTT
  /// plane's flow-group id). Applies to the base template and to any
  /// cycling templates installed afterwards that left flow at 0.
  void set_flow(std::uint32_t flow);

  /// Installs a set of templates cycled round-robin across valid frames
  /// (one frame per template per cycle) — e.g. one VLAN-tagged template
  /// per tenant, each carrying its own Frame.flow label. Replaces the
  /// single base template for valid frames; marked frames still win.
  void set_templates(std::vector<nic::Frame> templates);

  [[nodiscard]] std::uint64_t valid_frames() const { return valid_frames_; }
  [[nodiscard]] std::uint64_t gap_frames() const { return gap_frames_; }

  /// Mirrors the real-packet vs. filler-packet split (Section 8.1) into
  /// `<prefix>.valid_frames` / `<prefix>.gap_frames` / `<prefix>.carry_bytes`.
  void bind_telemetry(telemetry::MetricTree& tree, const std::string& prefix);

  ~SimLoadGen() = default;

 private:
  SimLoadGen() = default;
  nic::Frame next_frame();

  nic::Frame frame_;
  nic::Frame marked_frame_;
  std::vector<nic::Frame> templates_;  // round-robin when non-empty
  std::size_t template_index_ = 0;
  std::uint32_t flow_ = 0;
  int marked_remaining_ = 0;
  std::unique_ptr<DeparturePattern> pattern_;
  std::unique_ptr<CrcGapFiller> filler_;
  sim::SimTime byte_time_ps_ = 800;
  double acc_ps_ = 0;  // fractional wire-byte accumulator
  std::vector<std::size_t> pending_gaps_;
  std::size_t pending_index_ = 0;
  std::uint64_t valid_frames_ = 0;
  std::uint64_t gap_frames_ = 0;
  std::uint64_t frame_seq_ = 0;
  telemetry::CounterHandle tm_valid_;
  telemetry::CounterHandle tm_gap_;
  telemetry::GaugeHandle tm_carry_;
};

// ---------------------------------------------------------------------------
// Frame templates
// ---------------------------------------------------------------------------

struct UdpTemplateOptions {
  std::size_t frame_size = 124;  ///< buffer length (without FCS), Listing 2
  std::uint16_t udp_src = 1234;
  std::uint16_t udp_dst = 42;
  /// If true, insert an 802.1Q tag (vid/pcp below) after the Ethernet
  /// header. frame_size includes the 4 tag bytes.
  bool vlan = false;
  std::uint16_t vlan_vid = 0;
  std::uint8_t vlan_pcp = 0;
  /// Flow-group label stamped on the template (Frame.flow): selects the
  /// RTT plane histogram group this traffic is accounted under.
  std::uint32_t flow = 0;
  /// If true, append a PTP header after UDP (dst port forced to 319) so the
  /// NIC timestamp units can stamp the packet.
  bool ptp_payload = false;
  /// PTP message type: a type within the filter mask (0-3) is timestamped;
  /// MoonGen crafts background packets with a type outside the mask so the
  /// DuT cannot distinguish them from the sampled packets (Section 6.4).
  std::uint8_t ptp_message_type = 0;
};

/// Builds a UDP (optionally PTP-carrying) frame template for the simulated
/// generators.
nic::Frame make_udp_frame(const UdpTemplateOptions& opts);

/// Builds a PTP-over-Ethernet frame (EtherType 0x88F7), stampable at any
/// size >= 64 (Section 6.4).
nic::Frame make_ptp_ethernet_frame(std::size_t frame_size, std::uint8_t message_type = 0);

}  // namespace moongen::core
