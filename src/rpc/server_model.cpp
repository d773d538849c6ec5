#include "rpc/server_model.hpp"

#include <algorithm>
#include <cmath>

namespace moongen::rpc {

namespace {
/// Backoff before re-posting a response that hit a full TX ring.
constexpr sim::SimTime kTxRetryGapPs = 5 * sim::kPsPerUs;
/// Response frame size in bytes; a GET hit's value fills the frame.
constexpr std::size_t kResponseFrameSize = 96;
/// The port queue, RX and TX, that the server uses.
constexpr int kQueue = 0;

nic::Frame response_template(const ServerConfig& cfg) {
  RpcTemplateOptions opts;
  opts.frame_size = kResponseFrameSize;
  opts.udp_src = cfg.udp_src;
  opts.udp_dst = cfg.udp_dst;
  opts.opcode = Op::kGetHit;
  return make_rpc_frame(opts);
}
}  // namespace

ServerModel::ServerModel(nic::Port& port, ServerConfig config)
    : port_(port),
      events_(port.events()),
      cfg_(config),
      pool_(response_template(config), config.pool_frames),
      queue_(config.queue_capacity),
      tx_retry_(config.pool_frames),
      exp_service_(config.service_mean_ps, config.seed ^ 0x5e71ce5ull) {
  // Pre-size the ring storage: BoundedRing grows lazily, and a queue that
  // deepens for the first time mid-measurement would allocate there.
  queue_.reserve(config.queue_capacity);
  tx_retry_.reserve(config.pool_frames);
  auto& rx = port_.rx_queue(kQueue);
  rx.set_store(false);
  rx.set_callback([this](const nic::RxQueueModel::Entry& e) { on_rx(e); });
}

void ServerModel::install_faults(fault::FaultPlane& plane, const std::string& site) {
  fp_stall_ = plane.point(fault::FaultKind::kStall, site);
}

void ServerModel::on_rx(const nic::RxQueueModel::Entry& entry) {
  const auto& bytes = *entry.frame.data;
  const auto decoded = decode({bytes.data(), bytes.size()});
  if (!decoded.has_value() || is_response(decoded->op)) {
    ++garbage_;
    return;
  }
  ++received_;
  if (queue_.full()) {
    // Overload shedding: the request vanishes; the client sees a timeout.
    ++queue_drops_;
    return;
  }
  queue_.push_back(PendingRequest{decoded->op, decoded->seq, decoded->key, decoded->tx_time_ps,
                                  entry.frame.flow});
  if (queue_.size() > peak_queue_) peak_queue_ = queue_.size();
  try_dispatch();
}

sim::SimTime ServerModel::sample_service_ps() {
  const double ps = cfg_.service == ServerConfig::Service::kExponential ? exp_service_.next()
                                                                        : cfg_.service_mean_ps;
  const auto rounded = std::llround(ps);
  return rounded > 0 ? static_cast<sim::SimTime>(rounded) : 1;
}

void ServerModel::try_dispatch() {
  const sim::SimTime now = events_.now();
  if (now < stall_until_ps_) return;  // frozen; the stall-end event resumes
  while (busy_ < cfg_.workers && !queue_.empty()) {
    if (fp_stall_.installed()) {
      if (const auto* rule = fp_stall_.fire(now); rule != nullptr) {
        ++stalls_;
        const auto stall_ps = static_cast<sim::SimTime>(std::max(rule->param, 1.0));
        stall_until_ps_ = now + stall_ps;
        events_.schedule_in_inline(stall_ps, [this] { try_dispatch(); });
        return;
      }
    }
    const PendingRequest req = queue_.pop_front();
    ++busy_;
    events_.schedule_in_inline(sample_service_ps(), [this, req] { complete(req); });
  }
}

void ServerModel::complete(const PendingRequest& req) {
  --busy_;
  ++completed_;
  send_response(req);
  try_dispatch();
}

void ServerModel::send_response(const PendingRequest& req) {
  Op op = Op::kSetAck;
  std::uint16_t value_len = 0;
  if (req.op == Op::kGet) {
    if (req.key < cfg_.cache_keys) {
      op = Op::kGetHit;
      value_len =
          static_cast<std::uint16_t>(kResponseFrameSize - RpcPacketView::kHeaderStack);
    } else {
      op = Op::kGetMiss;
      ++misses_;
    }
  }
  auto [bytes, frame] = pool_.acquire();
  write_rpc_fields(bytes, op, req.seq, req.key, req.tx_time_ps, value_len);
  frame.seq = req.seq;
  frame.flow = req.flow;
  if (!port_.tx_queue(kQueue).post(std::move(frame))) {
    // TX ring full: park the request and retry on a timer; re-encoding at
    // retry time reuses a fresh pool buffer.
    if (tx_retry_.full()) {
      ++tx_drops_;
      return;
    }
    ++tx_retries_;
    tx_retry_.push_back(req);
    if (!retry_timer_armed_) {
      retry_timer_armed_ = true;
      events_.schedule_in_inline(kTxRetryGapPs, [this] { drain_tx_retry(); });
    }
  }
}

void ServerModel::drain_tx_retry() {
  retry_timer_armed_ = false;
  while (!tx_retry_.empty()) {
    if (port_.tx_queue(kQueue).ring_free() == 0) break;
    const PendingRequest req = tx_retry_.pop_front();
    send_response(req);
  }
  if (!tx_retry_.empty() && !retry_timer_armed_) {
    retry_timer_armed_ = true;
    events_.schedule_in_inline(kTxRetryGapPs, [this] { drain_tx_retry(); });
  }
}

void ServerModel::bind_telemetry(telemetry::MetricRegistry& registry, const std::string& prefix) {
  telemetry_.open(registry);
  telemetry_.gauge(prefix + ".received", [this] { return static_cast<double>(received_); });
  telemetry_.gauge(prefix + ".completed", [this] { return static_cast<double>(completed_); });
  telemetry_.gauge(prefix + ".queue_depth",
                   [this] { return static_cast<double>(queue_.size()); });
  telemetry_.gauge(prefix + ".queue_drops", [this] { return static_cast<double>(queue_drops_); });
  telemetry_.gauge(prefix + ".stalls", [this] { return static_cast<double>(stalls_); });
}

}  // namespace moongen::rpc
