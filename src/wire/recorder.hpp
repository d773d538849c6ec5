// Inter-arrival time recorder.
//
// Implements the measurement side of the rate-control evaluation (paper
// Section 7.3, Table 4, Figure 8): an Intel 82580 GbE port timestamps every
// received packet in hardware with 64 ns precision; the recorder histograms
// the differences and classifies micro-bursts (back-to-back frames).
#pragma once

#include <cstdint>
#include <optional>

#include "nic/port.hpp"
#include "telemetry/log_linear_histogram.hpp"

namespace moongen::wire {

class InterArrivalRecorder {
 public:
  /// Attaches to `port`'s RX queue `queue`. `bin_ps` should match the
  /// capture NIC's timestamp precision (64 ns on the 82580).
  InterArrivalRecorder(nic::Port& port, int queue, sim::SimTime bin_ps = 64'000,
                       sim::SimTime max_ps = 20'000'000);

  [[nodiscard]] const telemetry::LogLinearHistogram& histogram() const { return hist_; }
  [[nodiscard]] std::uint64_t samples() const { return hist_.total(); }

  /// Fraction of inter-arrivals within +-window of `target_ps`.
  [[nodiscard]] double fraction_within(sim::SimTime target_ps, sim::SimTime window_ps) const;

  /// Fraction of back-to-back arrivals (inter-arrival time equal to the
  /// frame's wire time, e.g. 672 ns for 64 B frames at GbE).
  [[nodiscard]] double micro_burst_fraction() const {
    return hist_.total() > 0
               ? static_cast<double>(bursts_) / static_cast<double>(hist_.total())
               : 0.0;
  }

 private:
  void on_packet(const nic::RxQueueModel::Entry& entry);

  nic::Port& port_;
  telemetry::LogLinearHistogram hist_;
  std::optional<std::uint64_t> last_stamp_;
  std::uint64_t bursts_ = 0;
};

}  // namespace moongen::wire
