// Software-rate-controlled generators, modelling the comparison targets of
// the paper's rate-control evaluation (Section 7.3, Table 4, Figure 8).
//
// Both baselines try to control inter-departure times from software, which
// modern NICs execute imprecisely: the software can only post descriptors;
// *when* the NIC fetches them via DMA is outside its control (Section 7.1).
//
//  * PktgenLikePacer (Pktgen-DPDK style): a busy-wait deadline loop posts
//    one descriptor per packet at the target time, with a small software
//    jitter. Precision is limited by the DMA fetch jitter.
//  * ZsendLikePacer (zsend style): the pacing loop checks the clock only
//    once per wake quantum and posts everything that became due
//    back-to-back — the burst bug observed in the paper (28.6-52 % of
//    packets arrive as micro-bursts).
#pragma once

#include <cstdint>
#include <random>

#include "nic/frame.hpp"
#include "nic/port.hpp"
#include "sim/event_queue.hpp"
#include "stats/mt19937_64.hpp"

namespace moongen::baseline {

/// Pktgen-DPDK-style pacer: one deadline-scheduled post per packet.
class PktgenLikePacer {
 public:
  struct Config {
    double mpps = 0.5;
    /// Stddev of the busy-wait loop's own timing error.
    sim::SimTime sw_jitter_sigma_ps = 30'000;  // 30 ns
    /// Probability that an iteration misses its deadline entirely (cache
    /// miss burst, TLB shootdown, timer readout hiccup) — the heavy tail
    /// behind Pktgen-DPDK's 94.5 % +-512 ns column and its micro-bursts at
    /// higher rates (Table 4). A miss delays the next post by the stall
    /// time; at rates where the stall exceeds the inter-packet gap the
    /// catch-up packets go out back-to-back.
    double deadline_miss_probability = 0.025;
    sim::SimTime miss_delay_min_ps = 600'000;    // 0.6 us
    sim::SimTime miss_delay_max_ps = 1'900'000;  // 1.9 us
    std::uint64_t seed = 0xdadbeef;
  };

  PktgenLikePacer(sim::EventQueue& events, nic::TxQueueModel& queue, nic::Frame frame,
                  Config config);

  void start();
  void stop() { running_ = false; }
  [[nodiscard]] std::uint64_t posted() const { return posted_; }

 private:
  void tick();

  sim::EventQueue& events_;
  nic::TxQueueModel& queue_;
  nic::Frame frame_;
  Config cfg_;
  stats::Mt19937_64 rng_;
  std::normal_distribution<double> jitter_;
  double next_deadline_ps_ = 0;
  double gap_ps_ = 0;
  sim::SimTime busy_until_ps_ = 0;  // loop stalled by a deadline miss
  bool running_ = false;
  std::uint64_t posted_ = 0;
};

/// zsend-style pacer: coarse wake loop, posts all due packets per wake.
class ZsendLikePacer {
 public:
  struct Config {
    double mpps = 0.5;
    /// The loop only observes time once per quantum; everything that became
    /// due meanwhile goes out back-to-back.
    sim::SimTime wake_quantum_ps = 2'800'000;  // 2.8 us
  };

  ZsendLikePacer(sim::EventQueue& events, nic::TxQueueModel& queue, nic::Frame frame,
                 Config config);

  void start();
  void stop() { running_ = false; }
  [[nodiscard]] std::uint64_t posted() const { return posted_; }

 private:
  void wake();

  sim::EventQueue& events_;
  nic::TxQueueModel& queue_;
  nic::Frame frame_;
  Config cfg_;
  sim::SimTime start_ps_ = 0;
  std::uint64_t due_total_ = 0;
  bool running_ = false;
  std::uint64_t posted_ = 0;
};

}  // namespace moongen::baseline
