#include "baseline/sw_paced.hpp"

namespace moongen::baseline {

ZsendLikePacer::ZsendLikePacer(sim::EventQueue& events, nic::TxQueueModel& queue,
                               nic::Frame frame, Config config)
    : events_(events), queue_(queue), frame_(std::move(frame)), cfg_(config) {}

void ZsendLikePacer::start() {
  running_ = true;
  start_ps_ = events_.now();
  wake();
}

void ZsendLikePacer::wake() {
  if (!running_) return;
  // How many packets should have been sent by now at the target rate?
  const double elapsed_ps = static_cast<double>(events_.now() - start_ps_);
  const auto should_have = static_cast<std::uint64_t>(elapsed_ps * cfg_.mpps / 1e6);
  // Everything that became due since the last wake goes out in one go —
  // the NIC fetches the descriptors together and transmits them
  // back-to-back (the micro-burst bug of Section 7.3).
  while (due_total_ < should_have) {
    nic::Frame f = frame_;
    f.seq = ++posted_;
    queue_.post(std::move(f));
    ++due_total_;
  }
  events_.schedule_in(cfg_.wake_quantum_ps, [this] { wake(); });
}

}  // namespace moongen::baseline
