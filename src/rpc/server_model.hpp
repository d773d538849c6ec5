// RPC server model: the device under test of the open-vs-closed studies.
//
// Decodes requests off its port's RX path into a bounded pending queue and
// services them with `workers` concurrent workers, each completion taking
// one draw from a configurable service-time distribution — the M/G/k queue
// behind every textbook open-vs-closed comparison. Responses echo the
// request's sequence id, key and TX timestamp (rpc/codec.hpp), so the
// client measures round-trip latency from the response alone.
//
// Like dut::Forwarder it exposes a deterministic `stall` fault site: a fire
// freezes dispatch for the rule's `param` picoseconds, producing the
// latency spikes the fault-tolerance experiments look for.
//
// Allocation discipline: the pending queue, the TX retry queue and the
// response frame pool are preallocated; the per-request path performs no
// heap allocation (verified by bench/rpc_open_loop.cpp).
#pragma once

#include <cstdint>
#include <string>

#include "fault/fault.hpp"
#include "membuf/ring.hpp"
#include "nic/port.hpp"
#include "rpc/codec.hpp"
#include "sim/time.hpp"
#include "stats/samplers.hpp"
#include "telemetry/registry.hpp"

namespace moongen::rpc {

struct ServerConfig {
  /// Concurrent service slots (the "k" of the M/G/k queue).
  int workers = 1;
  enum class Service { kFixed, kExponential };
  Service service = Service::kExponential;
  double service_mean_ps = 8.0 * 1e6;  // 8 us
  /// Pending-request queue bound; arrivals beyond it are dropped (and show
  /// up at the client as timeouts). Size it for the expected open-loop
  /// backlog, not the closed-loop one.
  std::size_t queue_capacity = 1 << 16;
  /// Response buffers in flight; must exceed the TX ring + FIFO depth.
  std::size_t pool_frames = 2048;
  /// GET keys at or above this id miss (kGetMiss response): a crude but
  /// deterministic cache-capacity model. Default: everything hits.
  std::uint64_t cache_keys = UINT64_MAX;
  std::uint16_t udp_src = kRpcUdpPort;
  std::uint16_t udp_dst = 9000;
  std::uint64_t seed = 1;
};

class ServerModel {
 public:
  /// Attaches to `port`'s RX queue 0 (callback sink mode — the queue's ring
  /// storage is disabled) and posts responses to its TX queue 0.
  ServerModel(nic::Port& port, ServerConfig config);

  ServerModel(const ServerModel&) = delete;
  ServerModel& operator=(const ServerModel&) = delete;

  /// Arms the `stall` fault site: a fire freezes dispatch for the rule's
  /// `param` ps.
  void install_faults(fault::FaultPlane& plane, const std::string& site);

  [[nodiscard]] std::uint64_t received() const { return received_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t queue_drops() const { return queue_drops_; }
  [[nodiscard]] std::uint64_t tx_retries() const { return tx_retries_; }
  [[nodiscard]] std::uint64_t tx_drops() const { return tx_drops_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t garbage() const { return garbage_; }
  [[nodiscard]] std::uint64_t stalls() const { return stalls_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] std::size_t peak_queue_depth() const { return peak_queue_; }
  [[nodiscard]] int busy_workers() const { return busy_; }

  /// Gauges under `<prefix>.*` reading received, completed, queue_depth,
  /// queue_drops and stalls above.
  void bind_telemetry(telemetry::MetricRegistry& registry, const std::string& prefix);

 private:
  struct PendingRequest {
    Op op = Op::kGet;
    std::uint64_t seq = 0;
    std::uint64_t key = 0;
    sim::SimTime tx_time_ps = 0;
    /// Flow-group label carried over from the request frame so the
    /// response leg lands in the same RTT-plane group as the request.
    std::uint32_t flow = 0;
  };

  void on_rx(const nic::RxQueueModel::Entry& entry);
  void try_dispatch();
  void complete(const PendingRequest& req);
  void send_response(const PendingRequest& req);
  void drain_tx_retry();
  [[nodiscard]] sim::SimTime sample_service_ps();

  nic::Port& port_;
  sim::EventQueue& events_;
  ServerConfig cfg_;
  FramePool pool_;
  membuf::BoundedRing<PendingRequest> queue_;
  membuf::BoundedRing<PendingRequest> tx_retry_;
  stats::ExponentialSampler exp_service_;
  fault::FaultPoint fp_stall_;
  sim::SimTime stall_until_ps_ = 0;
  bool retry_timer_armed_ = false;
  int busy_ = 0;

  std::uint64_t received_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t queue_drops_ = 0;
  std::uint64_t tx_retries_ = 0;
  std::uint64_t tx_drops_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t garbage_ = 0;
  std::uint64_t stalls_ = 0;
  std::size_t peak_queue_ = 0;
  telemetry::Binding telemetry_;
};

}  // namespace moongen::rpc
