// Invariant checkers: the runtime health plane's first line of defense.
//
// Long soak runs fail in ways unit tests never see: a leaked mempool
// buffer, a frame double-counted across a shard boundary, an in-flight
// table entry that neither matches nor times out. Each of those breaks a
// conservation law the subsystems already expose counters for — the health
// plane's job is to *cross-check* those books at window boundaries, off
// the hot path, and scream with context when they disagree.
//
// Design rules:
//  * Checkers are observation-only. Running them must not change a single
//    simulated outcome: a run with checkers enabled is byte-identical to a
//    run without (the chaos-soak CI job diffs exactly that).
//  * Checkers run at quiesced instants (testbed global events, or after
//    run_until returns), so they may read any shard's components without
//    synchronization.
//  * A checker returns a failed CheckResult instead of throwing: the
//    registry accumulates violations so a soak run can dump the flight
//    recorder and exit nonzero with *all* broken invariants, not just the
//    first.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "telemetry/registry.hpp"

namespace moongen::telemetry {
class RttPlane;
}  // namespace moongen::telemetry

namespace moongen::core {
class Timestamper;
}

namespace moongen::sim {
class EventQueue;
}

namespace moongen::membuf {
class Mempool;
}

namespace moongen::rpc::detail {
class ClientBase;
}

namespace moongen::testbed {
class Testbed;
}

namespace moongen::health {

/// Outcome of one checker evaluation. `ok == false` carries a description
/// of the violated invariant with the numbers that broke it.
struct CheckResult {
  bool ok = true;
  std::string detail;

  static CheckResult pass() { return {}; }
  static CheckResult fail(std::string detail) { return {false, std::move(detail)}; }
};

/// One invariant evaluation: called with the current virtual time at a
/// quiesced instant. Checkers may keep mutable state in their closure
/// (e.g. the last observed clock for monotonicity checks).
using CheckFn = std::function<CheckResult(sim::SimTime now_ps)>;

/// A recorded checker failure.
struct Violation {
  std::string checker;
  std::string detail;
  sim::SimTime when_ps = 0;
};

/// Named collection of invariant checkers, evaluated together at window
/// boundaries. Accumulates every violation ever observed (a soak run
/// reports them all at exit; the flight recorder embeds them in its dump).
class CheckerRegistry {
 public:
  CheckerRegistry() = default;
  CheckerRegistry(const CheckerRegistry&) = delete;
  CheckerRegistry& operator=(const CheckerRegistry&) = delete;

  void add(std::string name, CheckFn fn);

  /// Evaluates every checker at `now_ps`. Returns the violations from this
  /// pass only; they are also appended to violations().
  std::vector<Violation> run_all(sim::SimTime now_ps);

  [[nodiscard]] const std::vector<Violation>& violations() const { return violations_; }
  [[nodiscard]] std::size_t checker_count() const { return checkers_.size(); }
  /// Total checker evaluations (checkers x passes).
  [[nodiscard]] std::uint64_t checks_run() const { return checks_run_; }
  [[nodiscard]] const std::vector<std::string>& names() const { return names_; }

  /// Exports checks_run() and the violation count as `<prefix>.checks_run`
  /// / `<prefix>.violations` counters and checker_count() as the
  /// `<prefix>.checkers` gauge.
  void bind_telemetry(telemetry::MetricRegistry& registry, const std::string& prefix = "health");

 private:
  std::vector<std::string> names_;
  std::vector<CheckFn> checkers_;
  std::vector<Violation> violations_;
  std::uint64_t checks_run_ = 0;
  telemetry::Binding telemetry_;
};

// --- checker factories ------------------------------------------------------
//
// Each returns a CheckFn closed over the subsystem it audits. The factories
// for testbed-wide laws take the Testbed and walk its topology enumeration,
// so a checker built once keeps covering links/ports added by the scenario.

/// Event-engine structural audit (EventQueue::audit: node conservation
/// across freelist/wheel/ready/heap, occupancy bitmap, wheel horizon) plus
/// virtual-time monotonicity across evaluations.
[[nodiscard]] CheckFn make_engine_checker(sim::EventQueue& engine, std::string label);

/// Per-link frame conservation across every link of `tb`:
///   frames_carried + duplicated == flap_drops + fault_drops + delivered
/// and the link's drop/corrupt/reorder/dup/flap counters reconciled against
/// its FaultPoints' own fire counts (they must agree exactly — a mismatch
/// means a fault fired without its effect, or vice versa).
[[nodiscard]] CheckFn make_link_checker(testbed::Testbed& tb);

/// Per-port receive accounting across every device of `tb`: frames
/// delivered by inbound links, minus those accounted by the port
/// (crc_errors + rx_packets), is the in-flight count — it must never go
/// negative (a negative value means a frame was counted twice or conjured
/// from nothing). Also rx_ring_drops <= rx_packets (drops are counted after
/// receipt in this model).
[[nodiscard]] CheckFn make_port_checker(testbed::Testbed& tb);

/// Virtual-switch frame conservation across every vswitch of `tb`. Two
/// disjoint-outcome identities, exact at any quiesced instant:
///   ingress: received == matched + flooded + shaped_drops + queue_drops
///            + fault_drops
///   egress:  matched + flooded == emitted + egress_ring_drops + queued
/// A broken ingress identity means a frame took two outcomes (or none); a
/// broken egress identity means a queued frame leaked or was emitted twice.
/// Per-tenant books (matched, shaped, queue drops, queued, emitted, egress
/// ring drops) must also sum to the switch-wide totals, and each tenant's
/// egress identity must close: matched == emitted + egress_ring_drops +
/// queued.
[[nodiscard]] CheckFn make_vswitch_checker(testbed::Testbed& tb);

/// RPC client conservation: issued == matched + timed_out + send_drops +
/// in-flight table size. Exact at any quiesced instant — every issued
/// request is in exactly one of those states.
[[nodiscard]] CheckFn make_rpc_checker(const rpc::detail::ClientBase& client);

/// Mempool conservation + structural audit. `held_fn` (optional) is the
/// holder's own count of buffers it believes it has: the identity
/// available() + held_fn() == capacity() catches leaked and double-freed
/// buffers that the holder's books don't know about. audit() additionally
/// validates the free list itself (foreign pointers, duplicates).
[[nodiscard]] CheckFn make_mempool_checker(const membuf::Mempool& pool,
                                           std::function<std::size_t()> held_fn = {});

/// RTT-plane stamp conservation across all shards' RttShards:
///   births (tx_stamped + tx_forwarded + duplicated)
///     == deaths (rx_seen + dropped) + in-flight,   in-flight >= 0
/// A negative in-flight means a stamped frame was double-counted or an RTT
/// was conjured from nothing. Also: the cumulative histogram population
/// equals recorded() (every recorded sample landed in exactly one bucket)
/// and recorded() <= rx_seen() (recording only happens at accepted RX).
[[nodiscard]] CheckFn make_rtt_checker(const telemetry::RttPlane& plane);

/// Timestamper sampled-pair conservation:
///   attempts == samples + lost + discarded + (0 or 1 in flight)
/// Under fault-plane loss the sampled path must count the lost stamp as
/// lost — not leave it dangling — so that it and the always-on RTT plane
/// tell the same drop story (both are audited at the same instants).
/// Discarded covers attempts whose probe arrived but whose measurement
/// was unusable (occupied stamp register, clock-sync negative delta).
[[nodiscard]] CheckFn make_timestamper_checker(const core::Timestamper& ts);

}  // namespace moongen::health
