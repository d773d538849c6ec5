#include "baseline/sw_paced.hpp"

#include <algorithm>

namespace moongen::baseline {

PktgenLikePacer::PktgenLikePacer(sim::EventQueue& events, nic::TxQueueModel& queue,
                                 nic::Frame frame, Config config)
    : events_(events),
      queue_(queue),
      frame_(std::move(frame)),
      cfg_(config),
      rng_(config.seed),
      jitter_(0.0, static_cast<double>(config.sw_jitter_sigma_ps)),
      gap_ps_(1e6 / config.mpps) {}

void PktgenLikePacer::start() {
  running_ = true;
  next_deadline_ps_ = static_cast<double>(events_.now()) + gap_ps_;
  tick();
}

void PktgenLikePacer::tick() {
  if (!running_) return;
  // The busy-wait loop hits its deadline with a small error; deadlines are
  // derived from the target grid, so the error does not accumulate. A
  // stalled loop (deadline miss) posts late — and the following deadlines,
  // if already due, go out immediately after: the NIC fetches those
  // descriptors together and emits a micro-burst.
  double post_at = next_deadline_ps_ + jitter_(rng_);
  post_at = std::max({post_at, static_cast<double>(events_.now()),
                      static_cast<double>(busy_until_ps_)});
  events_.schedule_at(static_cast<sim::SimTime>(post_at), [this] {
    if (!running_) return;
    nic::Frame f = frame_;
    f.seq = ++posted_;
    queue_.post(std::move(f));  // single descriptor: no batching possible (Section 7.1)
    next_deadline_ps_ += gap_ps_;
    if (stats::canonical(rng_) < cfg_.deadline_miss_probability) {
      // Stall past the *next* deadline: that post goes out late by the
      // stall time.
      std::uniform_int_distribution<sim::SimTime> stall(cfg_.miss_delay_min_ps,
                                                        cfg_.miss_delay_max_ps);
      busy_until_ps_ =
          static_cast<sim::SimTime>(std::max(next_deadline_ps_, static_cast<double>(events_.now()))) +
          stall(rng_);
    }
    tick();
  });
}

}  // namespace moongen::baseline
