#include "wire/recorder.hpp"

namespace moongen::wire {

InterArrivalRecorder::InterArrivalRecorder(nic::Port& port, int queue, sim::SimTime bin_ps,
                                           sim::SimTime max_ps)
    : port_(port), hist_(telemetry::HistogramConfig::linear(bin_ps, max_ps)) {
  // Tap mode: the recorder consumes every packet; nothing accumulates in
  // the RX ring.
  port.rx_queue(queue).set_store(false);
  port.rx_queue(queue).set_callback([this](const nic::RxQueueModel::Entry& e) { on_packet(e); });
}

void InterArrivalRecorder::on_packet(const nic::RxQueueModel::Entry& entry) {
  const std::uint64_t stamp = entry.hw_timestamp;
  if (last_stamp_.has_value()) {
    const std::uint64_t delta = stamp - *last_stamp_;
    hist_.record(delta);
    // Back-to-back classification: inter-arrival within one bin of the
    // frame's own wire time.
    const std::uint64_t wire_ps = entry.frame.wire_bytes() * port_.byte_time_ps();
    if (delta <= wire_ps + hist_.config().unit / 2) ++bursts_;
  }
  last_stamp_ = stamp;
}

double InterArrivalRecorder::fraction_within(sim::SimTime target_ps,
                                             sim::SimTime window_ps) const {
  const sim::SimTime lo = target_ps > window_ps ? target_ps - window_ps : 0;
  return hist_.fraction_between(lo, target_ps + window_ps);
}

}  // namespace moongen::wire
