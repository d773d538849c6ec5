#include "core/timestamper.hpp"

namespace moongen::core {

Timestamper::Timestamper(sim::EventQueue& events, nic::Port& tx_port, int tx_queue,
                         nic::Port& rx_port, nic::Frame probe, TimestamperConfig config)
    : events_(events),
      tx_port_(tx_port),
      rx_port_(rx_port),
      tx_queue_(tx_queue),
      probe_(std::move(probe)),
      cfg_(config),
      rng_(config.seed),
      hist_(telemetry::HistogramConfig::linear(config.hist_bin_ps, config.hist_max_ps)) {
  init(rx_port);
}

Timestamper::Timestamper(sim::EventQueue& events, nic::Port& tx_port, SimLoadGen& gen,
                         nic::Frame stamped, nic::Port& rx_port, TimestamperConfig config)
    : events_(events),
      tx_port_(tx_port),
      rx_port_(rx_port),
      probe_(std::move(stamped)),
      stream_gen_(&gen),
      cfg_(config),
      rng_(config.seed),
      hist_(telemetry::HistogramConfig::linear(config.hist_bin_ps, config.hist_max_ps)) {
  init(rx_port);
}

void Timestamper::init(nic::Port& rx_port) {
  rx_port.set_rx_stamp_callback([this](std::uint64_t) { on_rx_stamp(); });
}

void Timestamper::bind_telemetry(telemetry::MetricRegistry& registry,
                                 const std::string& prefix) {
  telemetry_.open(registry);
  telemetry_.histogram(prefix + ".latency_ns", [this] { return latency_ns_hist_; });
  telemetry_.counter(prefix + ".samples", [this] { return samples_; });
  telemetry_.counter(prefix + ".lost", [this] { return lost_; });
  telemetry_.counter(prefix + ".discarded", [this] { return discarded_; });
  telemetry_.counter("recover." + prefix + ".resync", [this] { return resyncs_; });
}

void Timestamper::start() {
  running_ = true;
  if (stream_gen_ != nullptr) tx_port_.set_tx_batch_barrier(events_.now());
  events_.schedule_in(0, [this] { take_sample(); });
}

void Timestamper::take_sample() {
  if (!running_) return;
  // Clear stale registers (e.g. from a lost packet's TX stamp).
  (void)tx_port_.read_tx_timestamp();
  (void)rx_port_.read_rx_timestamp();

  // Resynchronizing before each timestamped packet reduces drift to a
  // ~0.0035 % relative error (Section 6.3). After a failed sample a resync
  // is forced even when per-sample sync is off: a stepped clock (fault
  // injection, NTP on the host) must not poison the rest of the run.
  const bool forced = resync_pending_;
  resync_pending_ = false;
  if (cfg_.sync_clocks_each_sample || forced) {
    sim::synchronize_clocks(tx_port_.ptp_clock(), rx_port_.ptp_clock(), events_.now(), rng_);
    if (forced && !cfg_.sync_clocks_each_sample) ++resyncs_;
  }

  armed_ = true;
  ++attempts_;
  const std::uint64_t token = ++arm_token_;

  if (stream_gen_ != nullptr) {
    stream_gen_->mark_next_valid(probe_, 1);
  } else {
    tx_port_.tx_queue(tx_queue_).post(probe_);
  }

  events_.schedule_in(cfg_.timeout_ps, [this, token] {
    if (armed_ && token == arm_token_) finish_sample(Outcome::kLost);
  });
}

void Timestamper::on_rx_stamp() {
  if (!armed_) {
    (void)rx_port_.read_rx_timestamp();  // stray stamp, discard
    return;
  }
  const auto rx = rx_port_.read_rx_timestamp();
  const auto tx = tx_port_.read_tx_timestamp();
  if (!rx.has_value() || !tx.has_value()) {
    // TX stamp missing (register was occupied when our packet left) —
    // the probe arrived but the measurement is unusable.
    finish_sample(Outcome::kDiscarded);
    return;
  }
  const auto delta = static_cast<std::int64_t>(*rx) - static_cast<std::int64_t>(*tx);
  if (delta >= 0) {
    hist_.record(static_cast<std::uint64_t>(delta));
    latency_ns_.add(static_cast<double>(delta) / 1e3);
    latency_ns_hist_.record(static_cast<std::uint64_t>(delta) / 1'000);  // ps -> ns
    ++samples_;
    finish_sample(Outcome::kSample);
  } else {
    // Negative delta: clock-sync estimation error exceeded the true
    // latency. The packet did arrive, so this is not a loss.
    finish_sample(Outcome::kDiscarded);
  }
}

void Timestamper::finish_sample(Outcome outcome) {
  armed_ = false;
  // Every launched attempt resolves into exactly one terminal state, so
  // attempts == samples + lost + discarded + in_flight stays exact — the
  // identity the health plane reconciles against the always-on RTT
  // plane's drop books. Keeping discarded separate from lost means
  // lost still equals genuine wire drops under fault injection.
  switch (outcome) {
    case Outcome::kSample:
      break;
    case Outcome::kLost:
      ++lost_;
      resync_pending_ = true;
      break;
    case Outcome::kDiscarded:
      ++discarded_;
      resync_pending_ = true;
      break;
  }
  if (!running_) return;
  // In stream mode the next take_sample marks a frame in the generator
  // mid-stream; batched TX must not pull frames past that instant, or the
  // mark would land on a different packet than in an unbatched run.
  if (stream_gen_ != nullptr)
    tx_port_.set_tx_batch_barrier(events_.now() + cfg_.sample_interval_ps);
  events_.schedule_in(cfg_.sample_interval_ps, [this] { take_sample(); });
}

}  // namespace moongen::core
