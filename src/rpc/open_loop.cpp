#include "rpc/open_loop.hpp"

#include <cmath>

namespace moongen::rpc {
namespace detail {

namespace {
/// Backoff before re-posting requests parked on a full TX ring.
constexpr sim::SimTime kTxRetryGapPs = 5 * sim::kPsPerUs;
/// Backpressured sends parked for retry (beyond it: dropped + counted).
constexpr std::size_t kPendingCapacity = 1 << 12;
/// The port queue, RX and TX, that a client uses.
constexpr int kQueue = 0;

nic::Frame request_template(const WorkloadConfig& cfg) {
  RpcTemplateOptions opts;
  opts.frame_size = cfg.frame_size;
  opts.udp_src = cfg.udp_src;
  opts.udp_dst = cfg.udp_dst;
  opts.opcode = Op::kGet;
  return make_rpc_frame(opts);
}
}  // namespace

ClientBase::ClientBase(nic::Port& port, LatencyRecorder& recorder, const WorkloadConfig& cfg)
    : port_(port),
      events_(port.events()),
      cfg_(cfg),
      recorder_(recorder),
      pool_(request_template(cfg), cfg.pool_frames),
      table_(cfg.inflight_expected),
      pending_(kPendingCapacity),
      opmix_(cfg.seed ^ 0x0b5e55edull),
      zipf_(cfg.key_space, cfg.zipf_skew, cfg.seed ^ 0x21f0a11a5ull),
      next_seq_(cfg.seq_base != 0 ? cfg.seq_base : 1) {
  pending_.reserve(kPendingCapacity);
  auto& rx = port_.rx_queue(kQueue);
  rx.set_store(false);
  rx.set_callback([this](const nic::RxQueueModel::Entry& e) { on_rx(e); });
}

void ClientBase::set_window(sim::SimTime start_ps, sim::SimTime stop_ps) {
  stop_ps_ = stop_ps;
  measure_start_ps_ = start_ps + cfg_.warmup_ps;
  measure_end_ps_ = stop_ps > cfg_.cooldown_ps ? stop_ps - cfg_.cooldown_ps : 0;
}

bool ClientBase::issue(std::uint64_t aux) {
  const sim::SimTime now = events_.now();
  Request req;
  req.op = opmix_.next_double() < cfg_.get_fraction ? Op::kGet : Op::kSet;
  req.seq = next_seq_++;
  req.key = zipf_.next();
  req.departed_ps = now;
  if (!table_.insert(req.seq, req.key, now, aux)) {
    ++table_rejects_;
    return false;
  }
  ++issued_;
  send_or_park(req);
  return true;
}

bool ClientBase::post_request(const Request& req) {
  auto [bytes, frame] = pool_.acquire();
  // The embedded timestamp is the *departure* time, not the (possibly
  // later) post time: open-loop latency must include any client-side
  // queueing, or backpressure would silently shrink the measured tail.
  write_rpc_fields(bytes, req.op, req.seq, req.key, req.departed_ps);
  frame.seq = req.seq;
  return port_.tx_queue(kQueue).post(std::move(frame));
}

void ClientBase::send_or_park(const Request& req) {
  // Preserve FIFO order behind already-parked requests.
  if (pending_.empty() && post_request(req)) return;
  if (pending_.full()) {
    ++send_drops_;
    if (const auto rec = table_.take(req.seq); rec.has_value()) on_send_dropped(*rec);
    return;
  }
  ++tx_deferrals_;
  pending_.push_back(req);
  if (!retry_timer_armed_) {
    retry_timer_armed_ = true;
    events_.schedule_in_inline(kTxRetryGapPs, [this] { drain_pending(); });
  }
}

void ClientBase::drain_pending() {
  retry_timer_armed_ = false;
  while (!pending_.empty()) {
    if (!post_request(pending_.front())) break;
    pending_.pop_front();
  }
  if (!pending_.empty() && !retry_timer_armed_) {
    retry_timer_armed_ = true;
    events_.schedule_in_inline(kTxRetryGapPs, [this] { drain_pending(); });
  }
}

void ClientBase::on_rx(const nic::RxQueueModel::Entry& entry) {
  const auto& bytes = *entry.frame.data;
  const auto decoded = decode({bytes.data(), bytes.size()});
  if (!decoded.has_value() || !is_response(decoded->op)) {
    ++garbage_;
    return;
  }
  const auto rec = table_.take(decoded->seq);
  if (!rec.has_value()) {
    // Duplicate delivery, a response to an already-expired request, or a
    // corrupted seq field that still passed the magic check.
    ++late_;
    return;
  }
  ++matched_;
  const sim::SimTime now = events_.now();
  if (rec->tx_time_ps >= measure_start_ps_ && rec->tx_time_ps < measure_end_ps_)
    recorder_.record_ps(now - rec->tx_time_ps);
  on_matched(*rec);
}

void ClientBase::arm_timeout_sweep() {
  if (cfg_.timeout_ps == 0 || sweep_armed_) return;
  sweep_armed_ = true;
  events_.schedule_in_inline(cfg_.timeout_ps, [this] { timeout_sweep(); });
}

void ClientBase::timeout_sweep() {
  sweep_armed_ = false;
  const sim::SimTime now = events_.now();
  const sim::SimTime deadline = now > cfg_.timeout_ps ? now - cfg_.timeout_ps : 0;
  table_.evict_older_than(deadline, [this](const InFlightTable::Record& rec) {
    ++timed_out_;
    on_timed_out(rec);
  });
  // Keep sweeping one timeout past the stop so entries leaked by loss near
  // the end of the run are still reclaimed.
  if (now < stop_ps_ + cfg_.timeout_ps) arm_timeout_sweep();
}

void ClientBase::bind_telemetry(telemetry::MetricRegistry& registry, const std::string& prefix) {
  telemetry_.open(registry);
  telemetry_.gauge(prefix + ".issued", [this] { return static_cast<double>(issued_); });
  telemetry_.gauge(prefix + ".matched", [this] { return static_cast<double>(matched_); });
  telemetry_.gauge(prefix + ".inflight", [this] { return static_cast<double>(table_.size()); });
  telemetry_.gauge(prefix + ".peak_inflight",
                   [this] { return static_cast<double>(table_.peak()); });
  telemetry_.gauge(prefix + ".timed_out", [this] { return static_cast<double>(timed_out_); });
  telemetry_.gauge(prefix + ".send_drops", [this] { return static_cast<double>(send_drops_); });
}

}  // namespace detail

// ---------------------------------------------------------------------------
// OpenLoopGenerator
// ---------------------------------------------------------------------------

OpenLoopGenerator::OpenLoopGenerator(nic::Port& port, LatencyRecorder& recorder,
                                     const WorkloadConfig& cfg)
    : ClientBase(port, recorder, cfg),
      arrival_(1e12 / cfg.offered_rps, cfg.seed ^ 0xa441a1ull),
      cbr_gap_ps_(1e12 / cfg.offered_rps) {}

sim::SimTime OpenLoopGenerator::next_gap_ps() {
  if (cfg_.arrival == WorkloadConfig::Arrival::kCbr) {
    // Round-with-carry (the rate_control.hpp convention): each gap is the
    // nearest ps and the long-run rate stays exact.
    cbr_acc_ps_ += cbr_gap_ps_;
    const auto gap = std::llround(cbr_acc_ps_);
    cbr_acc_ps_ -= static_cast<double>(gap);
    return gap > 0 ? static_cast<sim::SimTime>(gap) : 0;
  }
  const auto gap = std::llround(arrival_.next());
  return gap > 0 ? static_cast<sim::SimTime>(gap) : 0;
}

void OpenLoopGenerator::start(sim::SimTime start_ps, sim::SimTime stop_ps) {
  set_window(start_ps, stop_ps);
  arm_timeout_sweep();
  events_.schedule_at_inline(start_ps, [this] { depart(); });
}

void OpenLoopGenerator::set_keep_fraction(double fraction) {
  keep_fraction_ = fraction < 0.0 ? 0.0 : (fraction > 1.0 ? 1.0 : fraction);
}

void OpenLoopGenerator::depart() {
  // Accumulator thinning: at keep 1.0 the accumulator hits exactly 1.0 each
  // departure (no drift — 1.0 sums exactly), so the undegraded path issues
  // every time, bit-for-bit as before the lever existed.
  keep_acc_ += keep_fraction_;
  if (keep_acc_ >= 1.0) {
    keep_acc_ -= 1.0;
    issue(/*aux=*/0);
  } else {
    ++shed_;
  }
  const sim::SimTime next = events_.now() + next_gap_ps();
  if (next < stop_ps_) events_.schedule_at_inline(next, [this] { depart(); });
}

// ---------------------------------------------------------------------------
// ClosedLoopGenerator
// ---------------------------------------------------------------------------

ClosedLoopGenerator::ClosedLoopGenerator(nic::Port& port, LatencyRecorder& recorder,
                                         const WorkloadConfig& cfg, ClosedLoopConfig closed)
    : ClientBase(port, recorder, cfg),
      closed_(closed),
      think_(closed.think_mean_ps > 0 ? closed.think_mean_ps : 1.0,
             cfg.seed ^ 0x7712f3c9ull) {}

void ClosedLoopGenerator::start(sim::SimTime start_ps, sim::SimTime stop_ps) {
  set_window(start_ps, stop_ps);
  arm_timeout_sweep();
  for (std::uint64_t u = 0; u < closed_.users; ++u) {
    // Desynchronized starts: each user begins after an independent think
    // draw, so the first wave is not a synchronized burst.
    const sim::SimTime first =
        closed_.think_mean_ps > 0
            ? start_ps + static_cast<sim::SimTime>(std::llround(think_.next()))
            : start_ps;
    if (first < stop_ps) events_.schedule_at_inline(first, [this, u] { user_fire(u); });
  }
}

void ClosedLoopGenerator::user_fire(std::uint64_t user) {
  if (events_.now() >= stop_ps_) return;
  issue(user);
}

void ClosedLoopGenerator::reschedule_user(std::uint64_t user) {
  const sim::SimTime gap =
      closed_.think_mean_ps > 0 ? static_cast<sim::SimTime>(std::llround(think_.next())) : 0;
  const sim::SimTime next = events_.now() + gap;
  if (next < stop_ps_) events_.schedule_at_inline(next, [this, user] { user_fire(user); });
}

}  // namespace moongen::rpc
