// Device-under-test model: a Linux server forwarding packets with Open
// vSwitch (the DuT of paper Sections 7.4, 8.2, 8.3).
//
// Models the parts of the software stack whose reactions the paper
// measures:
//  * NAPI: an interrupt schedules a poll loop; the poll drains up to a
//    budget of packets per pass and keeps polling while the ring is
//    non-empty, with interrupts disabled — so at overload the interrupt
//    rate collapses (Figure 7, right edge).
//  * Dynamic interrupt throttling (ixgbe ITR + Linux dynamic adaption
//    [10, 25]): the driver classifies traffic per poll and re-arms the
//    interrupt only after a class-dependent gap. Micro-bursts push the
//    estimator into the bulk class and its long re-arm gap, which is why
//    bursty generators produce a *low* interrupt rate (Figure 7) and
//    higher latencies.
//  * A single-core datapath with a fixed per-packet cost: the DuT saturates
//    at ~1.9-2.0 Mpps; beyond that the RX ring (4096 descriptors) fills and
//    the forwarding latency is bounded by the buffer, ~2 ms (Figure 11).
#pragma once

#include <cstdint>

#include "fault/fault.hpp"
#include "nic/port.hpp"
#include "sim/event_queue.hpp"
#include "stats/mt19937_64.hpp"
#include "stats/running_stats.hpp"

namespace moongen::dut {

struct ForwarderConfig {
  double cpu_hz = 3.3e9;             ///< Xeon E3-1230 v2 (Section 9)
  double cycles_per_packet = 1'700;  ///< OVS datapath cost -> ~1.94 Mpps capacity
  std::uint64_t seed = 0xd0075ffULL;
};

class Forwarder {
 public:
  /// Forwards every frame arriving on (`in_port`, `in_queue`) out of
  /// (`out_port`, `out_queue`), like OVS with a single static OpenFlow rule.
  Forwarder(sim::EventQueue& events, nic::Port& in_port, int in_queue, nic::Port& out_port,
            int out_queue, ForwarderConfig config = {});

  [[nodiscard]] std::uint64_t interrupts() const { return interrupts_; }
  [[nodiscard]] std::uint64_t forwarded() const { return forwarded_; }
  [[nodiscard]] std::uint64_t polls() const { return polls_; }
  /// Per-packet residence time inside the DuT (ring wait + service +
  /// pipeline), recorded for diagnostics; end-to-end latency is measured by
  /// the generator's timestamper as in the paper.
  [[nodiscard]] const stats::RunningStats& internal_latency_ns() const { return latency_ns_; }
  [[nodiscard]] int itr_class() const { return itr_class_; }

  /// Arms the stall fault site: a fire freezes the poll loop for the
  /// rule's `param` ps (default 50 us) — scheduler preemption, SMI, or cache
  /// trashing on the DuT core. Packets queue in the RX ring meanwhile.
  void install_faults(fault::FaultPlane& plane, const std::string& site);
  [[nodiscard]] std::uint64_t stalls() const { return stalls_; }

 private:
  void packet_arrived();
  void fire_interrupt();
  void poll();
  [[nodiscard]] sim::SimTime current_itr_gap() const;
  void update_itr(std::size_t pairs, std::size_t packets);

  sim::EventQueue& events_;
  nic::Port& in_port_;
  nic::RxQueueModel& rx_;
  nic::TxQueueModel& tx_;
  sim::SimTime service_ps_;

  bool polling_ = false;
  bool interrupt_scheduled_ = false;
  sim::SimTime last_interrupt_ps_ = 0;

  int itr_class_ = 0;  // 0 = lowest latency, 1 = low latency, 2 = bulk
  double burst_share_ewma_ = 0.0;
  sim::SimTime last_arrival_ps_ = 0;
  stats::Mt19937_64 rng_;
  /// Reused RX burst array (cleared per poll); grows to the poll budget once.
  std::vector<nic::RxQueueModel::Entry> poll_scratch_;

  fault::FaultPoint fp_stall_;
  std::uint64_t stalls_ = 0;

  std::uint64_t interrupts_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t polls_ = 0;
  stats::RunningStats latency_ns_;
};

}  // namespace moongen::dut
