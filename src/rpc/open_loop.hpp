// Open- and closed-loop RPC load generators.
//
// The open-loop generator schedules request departures on the event engine
// from an arrival process alone — never from responses. A slow server
// cannot throttle it: the backlog grows without bound, queueing delay
// lands in the measured latency, and the tail inflates. That is the
// defining property separating it from the closed-loop generator below,
// where each of N users waits for its response (plus think time) before
// issuing again — N bounds the backlog and the system self-throttles near
// saturation. Comparing the two at the same offered load is the
// fig10/fig11-style experiment examples/rpc_load_latency.cpp runs.
//
// Both generators:
//  * draw operations (get/set mix), keys (Zipf) and inter-arrival/think
//    gaps from the deterministic samplers in stats/samplers.hpp;
//  * embed seq/key/departure-timestamp in the payload (rpc/codec.hpp) and
//    track outstanding requests in a flat open-addressing InFlightTable
//    sized for millions of entries;
//  * measure only requests departing inside [start+warmup, stop-cooldown);
//  * keep the steady state allocation-free: frame buffers come from a
//    round-robin FramePool, backpressured sends park in a preallocated
//    ring, and all event closures fit the engine's inline budget.
#pragma once

#include <cstdint>
#include <string>

#include "membuf/ring.hpp"
#include "nic/port.hpp"
#include "rpc/codec.hpp"
#include "rpc/inflight.hpp"
#include "rpc/latency_recorder.hpp"
#include "sim/event_queue.hpp"
#include "stats/samplers.hpp"
#include "telemetry/registry.hpp"

namespace moongen::rpc {

struct WorkloadConfig {
  /// Open loop: mean request departure rate (requests per virtual second).
  double offered_rps = 100'000.0;
  /// Fraction of requests that are GETs (the rest are SETs).
  double get_fraction = 0.95;
  /// Key popularity: Zipf over [0, key_space) with this skew.
  std::size_t key_space = 65536;
  double zipf_skew = 0.99;
  std::size_t frame_size = 96;
  std::uint16_t udp_src = 9000;
  std::uint16_t udp_dst = kRpcUdpPort;
  /// Request buffers in flight; must exceed the TX ring + FIFO depth.
  std::size_t pool_frames = 2048;
  /// Expected outstanding requests; the in-flight table is sized to hold
  /// twice this (open-addressing load factor 0.5).
  std::size_t inflight_expected = 1 << 16;
  /// Measurement window trim relative to [start, stop).
  sim::SimTime warmup_ps = 0;
  sim::SimTime cooldown_ps = 0;
  /// Reclaim sweep: in-flight entries older than this are expired (needed
  /// under loss faults, where responses never come). 0 disables.
  sim::SimTime timeout_ps = 0;
  enum class Arrival { kExponential, kCbr } arrival = Arrival::kExponential;
  /// First sequence id (nonzero); pairs sharing a wire need disjoint ranges.
  std::uint64_t seq_base = 1;
  std::uint64_t seed = 1;
};

namespace detail {

/// State and paths shared by both generators: encode+send with
/// backpressure, response matching, timeout sweeps, counters.
class ClientBase {
 public:
  ClientBase(nic::Port& port, LatencyRecorder& recorder, const WorkloadConfig& cfg);
  virtual ~ClientBase() = default;
  ClientBase(const ClientBase&) = delete;
  ClientBase& operator=(const ClientBase&) = delete;

  [[nodiscard]] std::uint64_t issued() const { return issued_; }
  [[nodiscard]] std::uint64_t matched() const { return matched_; }
  [[nodiscard]] std::uint64_t late() const { return late_; }
  [[nodiscard]] std::uint64_t timed_out() const { return timed_out_; }
  [[nodiscard]] std::uint64_t send_drops() const { return send_drops_; }
  [[nodiscard]] std::uint64_t table_rejects() const { return table_rejects_; }
  [[nodiscard]] std::uint64_t garbage() const { return garbage_; }
  [[nodiscard]] std::uint64_t tx_deferrals() const { return tx_deferrals_; }
  [[nodiscard]] std::size_t inflight() const { return table_.size(); }
  [[nodiscard]] std::size_t peak_inflight() const { return table_.peak(); }
  [[nodiscard]] LatencyRecorder& recorder() { return recorder_; }

  /// Gauges under `<prefix>.*` reading issued, matched, inflight,
  /// peak_inflight, timed_out and send_drops above.
  void bind_telemetry(telemetry::MetricRegistry& registry, const std::string& prefix);

 protected:
  struct Request {
    Op op = Op::kGet;
    std::uint64_t seq = 0;
    std::uint64_t key = 0;
    sim::SimTime departed_ps = 0;
  };

  /// Draws op + key, stamps the current time, inserts into the in-flight
  /// table and sends (or parks under backpressure). Returns false if the
  /// table refused the entry.
  bool issue(std::uint64_t aux);
  void set_window(sim::SimTime start_ps, sim::SimTime stop_ps);
  void arm_timeout_sweep();

  /// Response matched within the run (record already removed); rec.aux is
  /// the value passed to issue().
  virtual void on_matched(const InFlightTable::Record& /*rec*/) {}
  /// Entry expired by the timeout sweep.
  virtual void on_timed_out(const InFlightTable::Record& /*rec*/) {}
  /// Send dropped on a full pending ring (entry already removed).
  virtual void on_send_dropped(const InFlightTable::Record& /*rec*/) {}

  nic::Port& port_;
  sim::EventQueue& events_;
  WorkloadConfig cfg_;
  LatencyRecorder& recorder_;
  FramePool pool_;
  InFlightTable table_;
  membuf::BoundedRing<Request> pending_;
  stats::SplitMix64 opmix_;
  stats::ZipfSampler zipf_;
  sim::SimTime stop_ps_ = 0;
  sim::SimTime measure_start_ps_ = 0;
  sim::SimTime measure_end_ps_ = 0;
  std::uint64_t next_seq_ = 1;

 private:
  void on_rx(const nic::RxQueueModel::Entry& entry);
  void send_or_park(const Request& req);
  bool post_request(const Request& req);
  void drain_pending();
  void timeout_sweep();

  bool retry_timer_armed_ = false;
  bool sweep_armed_ = false;

  std::uint64_t issued_ = 0;
  std::uint64_t matched_ = 0;
  std::uint64_t late_ = 0;
  std::uint64_t timed_out_ = 0;
  std::uint64_t send_drops_ = 0;
  std::uint64_t table_rejects_ = 0;
  std::uint64_t garbage_ = 0;
  std::uint64_t tx_deferrals_ = 0;
  telemetry::Binding telemetry_;
};

}  // namespace detail

/// Open-loop generator: departures from the arrival process only.
class OpenLoopGenerator : public detail::ClientBase {
 public:
  OpenLoopGenerator(nic::Port& port, LatencyRecorder& recorder, const WorkloadConfig& cfg);

  /// Schedules departures in [start_ps, stop_ps). The caller keeps the
  /// engine running past stop_ps to drain responses in flight.
  void start(sim::SimTime start_ps, sim::SimTime stop_ps);

  /// Graceful-degradation lever (health plane): keep only `fraction` of the
  /// scheduled departures, shedding the rest deterministically via an
  /// accumulator (every 1/fraction-th departure issues — no RNG, so a run
  /// that never degrades is byte-identical to one without the lever). The
  /// arrival process itself is untouched: shedding thins issues, it does
  /// not slow the clock, preserving the open-loop property. Clamped to
  /// [0, 1]; 1.0 (the default) issues every departure.
  void set_keep_fraction(double fraction);
  [[nodiscard]] double keep_fraction() const { return keep_fraction_; }
  /// Departures suppressed by shedding so far.
  [[nodiscard]] std::uint64_t shed_departures() const { return shed_; }

 private:
  void depart();
  [[nodiscard]] sim::SimTime next_gap_ps();

  stats::ExponentialSampler arrival_;
  double cbr_gap_ps_ = 0.0;
  double cbr_acc_ps_ = 0.0;
  double keep_fraction_ = 1.0;
  double keep_acc_ = 0.0;
  std::uint64_t shed_ = 0;
};

struct ClosedLoopConfig {
  /// Concurrent users; each waits for its response before re-issuing.
  std::size_t users = 64;
  /// Mean exponential think time between response and next request. To
  /// offer the same load as an open-loop run at rate R with N users, use
  /// N / R (each user cycles at R/N when the server is fast; when it is
  /// not, the users throttle — which is the phenomenon under study).
  double think_mean_ps = 0.0;
};

/// Closed-loop generator: at most `users` requests outstanding.
class ClosedLoopGenerator : public detail::ClientBase {
 public:
  ClosedLoopGenerator(nic::Port& port, LatencyRecorder& recorder, const WorkloadConfig& cfg,
                      ClosedLoopConfig closed);

  void start(sim::SimTime start_ps, sim::SimTime stop_ps);

  [[nodiscard]] std::size_t users() const { return closed_.users; }

 protected:
  void on_matched(const InFlightTable::Record& rec) override { reschedule_user(rec.aux); }
  void on_timed_out(const InFlightTable::Record& rec) override { reschedule_user(rec.aux); }
  void on_send_dropped(const InFlightTable::Record& rec) override { reschedule_user(rec.aux); }

 private:
  void user_fire(std::uint64_t user);
  void reschedule_user(std::uint64_t user);

  ClosedLoopConfig closed_;
  stats::ExponentialSampler think_;
};

}  // namespace moongen::rpc
