// Hardware-assisted latency measurement (paper Section 6).
//
// The Timestamper reproduces MoonGen's sampling design:
//  * clocks of the TX and RX ports are (re)synchronized before every
//    timestamped packet, turning clock drift into a negligible relative
//    error (Section 6.3);
//  * only one timestamped packet is in flight at a time because the NICs
//    latch TX/RX timestamps in single registers that must be read back
//    (Section 6.4);
//  * in stream mode, the timestamped packet is an ordinary packet of the
//    load stream whose PTP type byte was flipped into the timestampable
//    range — the device under test cannot distinguish it, so MoonGen
//    effectively samples random packets of the data stream.
#pragma once

#include <cstdint>

#include "core/rate_control.hpp"
#include "nic/port.hpp"
#include "sim/clock_sync.hpp"
#include "sim/event_queue.hpp"
#include "stats/mt19937_64.hpp"
#include "stats/running_stats.hpp"
#include "telemetry/log_linear_histogram.hpp"
#include "telemetry/registry.hpp"

namespace moongen::core {

struct TimestamperConfig {
  /// Pause between samples (the paper stamps thousands per second).
  sim::SimTime sample_interval_ps = 200 * sim::kPsPerUs;
  /// Give up on a sample after this time (packet lost, e.g. overload).
  sim::SimTime timeout_ps = 20 * sim::kPsPerMs;
  /// Re-synchronize the port clocks before every sample (Section 6.3).
  bool sync_clocks_each_sample = true;
  /// Histogram geometry for latency values (in ps): fixed bins of
  /// hist_bin_ps up to hist_max_ps, at most 2^20 of them
  /// (telemetry::HistogramConfig::linear).
  sim::SimTime hist_bin_ps = 6'400;
  sim::SimTime hist_max_ps = 5 * sim::kPsPerMs;
  std::uint64_t seed = 0x7151bead;
};

class Timestamper {
 public:
  /// Inject mode: posts `probe` to (`tx_port`, `tx_queue`) for each sample.
  /// Used for direct loopback measurements (Table 3) and alongside
  /// hardware-rate-limited load on another queue.
  Timestamper(sim::EventQueue& events, nic::Port& tx_port, int tx_queue, nic::Port& rx_port,
              nic::Frame probe, TimestamperConfig config = {});

  /// Stream mode: asks `gen` to replace the next valid frame of its stream
  /// with `stamped` (same size, timestampable PTP type). Used through a DuT
  /// so the measured packets are part of the load (Sections 8.2, 8.3).
  Timestamper(sim::EventQueue& events, nic::Port& tx_port, SimLoadGen& gen, nic::Frame stamped,
              nic::Port& rx_port, TimestamperConfig config = {});
  Timestamper(const Timestamper&) = delete;
  Timestamper& operator=(const Timestamper&) = delete;

  /// Begins sampling at the current simulation time.
  void start();
  /// Stops scheduling further samples.
  void stop() { running_ = false; }

  [[nodiscard]] const telemetry::LogLinearHistogram& histogram() const { return hist_; }
  [[nodiscard]] const stats::RunningStats& latency_ns() const { return latency_ns_; }
  [[nodiscard]] std::uint64_t samples() const { return samples_; }
  /// Probes that never produced an RX stamp before the timeout — the
  /// packet died in flight. Under fault injection this equals the
  /// injected wire drops exactly (the reconciliation the health plane
  /// cross-checks against the always-on RTT plane's drop books).
  [[nodiscard]] std::uint64_t lost() const { return lost_; }
  /// Samples abandoned for measurement reasons although the probe
  /// arrived: TX stamp register occupied when the packet left, or a
  /// negative delta (clock-sync estimation error exceeding the true
  /// latency). Not drops — counted separately so lost() stays exact.
  [[nodiscard]] std::uint64_t discarded() const { return discarded_; }
  /// Timestamped packets launched so far (successful or not). Every
  /// attempt ends in exactly one state:
  /// attempts() == samples() + lost() + discarded() + (0 or 1 in flight).
  [[nodiscard]] std::uint64_t attempts() const { return attempts_; }
  /// True while a timestamped packet is in flight (launched, not yet
  /// resolved as a sample or a loss).
  [[nodiscard]] bool sample_in_flight() const { return armed_; }
  /// Forced clock resyncs after a failed sample (recovery actions; only
  /// incremented when sync_clocks_each_sample is off, where a stepped clock
  /// would otherwise poison every later sample).
  [[nodiscard]] std::uint64_t resyncs() const { return resyncs_; }

  /// Exports every latency sample in ns as `<prefix>.latency_ns` (log-
  /// linear up to 100 ms: one geometry fits both loopback cables and
  /// buffer-bloated DuTs), samples(), lost() and discarded() as
  /// `<prefix>.samples` / `.lost` / `.discarded`, and resyncs() as
  /// `recover.<prefix>.resync`.
  void bind_telemetry(telemetry::MetricRegistry& registry, const std::string& prefix);

 private:
  /// How one attempt resolved (see attempts() for the identity).
  enum class Outcome { kSample, kLost, kDiscarded };

  void init(nic::Port& rx_port);
  void take_sample();
  void on_rx_stamp();
  void finish_sample(Outcome outcome);

  sim::EventQueue& events_;
  nic::Port& tx_port_;
  nic::Port& rx_port_;
  int tx_queue_ = 0;
  nic::Frame probe_;
  SimLoadGen* stream_gen_ = nullptr;
  TimestamperConfig cfg_;
  stats::Mt19937_64 rng_;

  bool running_ = false;
  bool armed_ = false;
  std::uint64_t arm_token_ = 0;
  /// A failed sample (timeout or negative delta) is the symptom of a lost
  /// packet — or of a stepped/drifting clock. Force a resync before the
  /// next sample so one clock fault cannot poison the rest of the run.
  bool resync_pending_ = false;
  std::uint64_t resyncs_ = 0;

  telemetry::LogLinearHistogram hist_;
  telemetry::LogLinearHistogram latency_ns_hist_{{.max_value = 100'000'000}};  // ns; exported
  stats::RunningStats latency_ns_;
  std::uint64_t samples_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t discarded_ = 0;
  std::uint64_t attempts_ = 0;
  telemetry::Binding telemetry_;
};

}  // namespace moongen::core
