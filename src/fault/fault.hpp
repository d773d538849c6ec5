// Deterministic fault-injection plane.
//
// The paper's headline measurements assume a perfect link; real deployments
// of a traffic generator must *produce* loss (RFC 2544-style searches, DuT
// overload, Section 8.3) and survive it. This module provides a seeded,
// declarative fault plane:
//
//   * a `FaultSpec` names the faults to inject — kind, site, probability,
//     burst length, time window, magnitude — and carries one seed;
//   * a `FaultPlane` turns the spec into per-site `FaultPoint` handles that
//     instrumented components (wire::Link, nic::Port, membuf::Mempool,
//     dut::Forwarder) probe on their fault paths;
//   * scheduled faults (PTP clock steps/drift changes, link flap recovery)
//     run as events on the simulation's event queue.
//
// Determinism contract: every site draws from its own RNG stream, seeded
// from the spec seed and the site name. For a fixed spec, the per-site fire
// sequence is byte-identical run to run and independent of what other sites
// do — loss-rate tests are exact, not statistical.
//
// Zero-cost contract: a default-constructed (or unmatched) FaultPoint holds
// a null site pointer; `fire()` is a single inlined null check. Components
// additionally gate their fault blocks on `installed()`, so a run without a
// FaultPlane executes the pre-fault-plane code byte for byte.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"
#include "stats/mt19937_64.hpp"
#include "telemetry/registry.hpp"

namespace moongen::sim {
class EventQueue;
class PtpClock;
}  // namespace moongen::sim

namespace moongen::fault {

enum class FaultKind : std::uint8_t {
  kFrameLoss,      ///< wire::Link: drop the frame
  kFrameCorrupt,   ///< wire::Link: flip a byte, invalidating the FCS
  kFrameReorder,   ///< wire::Link: hold the frame back (lands after later ones)
  kFrameDuplicate, ///< wire::Link: deliver the frame twice
  kLinkFlap,       ///< wire::Link: carrier down for `param` ps, then up
  kRxOverflow,     ///< nic::Port: drop as if the RX ring were full
  kAllocFail,      ///< membuf::Mempool: transient allocation failure
  kStall,          ///< dut::Forwarder: delay the poll loop by `param` ps
  kClockStep,      ///< sim::PtpClock: one-shot adjust by `param` ps (scheduled)
  kClockDrift,     ///< sim::PtpClock: set drift to `param` ppb (scheduled)
  kCount,
};

[[nodiscard]] const char* to_string(FaultKind kind);
[[nodiscard]] std::optional<FaultKind> kind_from_string(std::string_view name);

/// One declarative fault. `site` selects probe sites by prefix: empty
/// matches every site probing `kind`; "wire.l1" matches "wire.l1.loss" and
/// "wire.l1.corrupt". Probability is per probe; once triggered, the fault
/// fires for `burst` consecutive probes. The rule is live inside
/// [window_start_ps, window_end_ps). `param` is the kind-specific magnitude
/// (flap down-time ps, stall ps, clock step ps, drift ppb).
struct FaultRule {
  static constexpr sim::SimTime kNoEnd = UINT64_MAX;

  FaultKind kind = FaultKind::kFrameLoss;
  std::string site;
  double probability = 0.0;
  std::uint32_t burst = 1;
  sim::SimTime window_start_ps = 0;
  sim::SimTime window_end_ps = kNoEnd;
  double param = 0.0;

  [[nodiscard]] bool matches(FaultKind kind_, std::string_view site_) const {
    return kind == kind_ && (site.empty() || site_.substr(0, site.size()) == site);
  }
};

/// A seed plus a list of rules. Parsed from the mini-language used by the
/// examples' `--faults` flag:
///
///   spec  := item (';' item)*
///   item  := 'seed=' N | rule
///   rule  := kind ['@' site] ':' key '=' value (',' key '=' value)*
///   kind  := loss|corrupt|reorder|dup|flap|rx_overflow|alloc_fail|stall|
///            clock_step|clock_drift
///   key   := p (probability) | burst | from (ps) | to (ps) | param
///
/// Example: "seed=42;loss@wire.l1:p=0.001,burst=2;flap@wire.l1:p=1e-6,param=5e9"
struct FaultSpec {
  std::uint64_t seed = 1;
  std::vector<FaultRule> rules;

  [[nodiscard]] bool empty() const { return rules.empty(); }

  /// Throws std::invalid_argument on malformed input.
  static FaultSpec parse(std::string_view text);
};

class FaultPlane;

namespace detail {

/// Per-site state: the matched rules, the site's private RNG stream, and
/// fire accounting. Addresses are stable (FaultPlane stores sites in a
/// deque); FaultPoints alias them. probe() is not thread-safe — sim sites
/// run on the single event-loop thread, mempool sites probe under the
/// pool's lock.
struct FaultSite {
  struct ArmedRule {
    FaultRule rule;
    std::uint32_t burst_left = 0;
  };

  /// Returns the rule that fires at this probe, or nullptr.
  const FaultRule* probe(sim::SimTime now_ps);
  void record_fire();

  FaultPlane* plane = nullptr;
  std::string name;
  FaultKind kind = FaultKind::kFrameLoss;
  stats::Mt19937_64 rng;
  std::vector<ArmedRule> armed;
  std::uint64_t probes = 0;
  std::uint64_t fires = 0;
};

}  // namespace detail

/// Handle probed by an instrumented component at one fault site. Default
/// construction yields a disabled point: `fire()` is one null check.
class FaultPoint {
 public:
  FaultPoint() = default;

  /// Returns the fired rule (for its `param`) or nullptr. `now_ps` gates
  /// the rules' time windows; callers without a simulation clock pass 0.
  const FaultRule* fire(sim::SimTime now_ps = 0) {
    return site_ == nullptr ? nullptr : site_->probe(now_ps);
  }

  /// True if any rule is armed at this site (disabled points never fire).
  [[nodiscard]] bool installed() const { return site_ != nullptr; }
  [[nodiscard]] std::uint64_t fires() const { return site_ == nullptr ? 0 : site_->fires; }

 private:
  friend class FaultPlane;
  explicit FaultPoint(detail::FaultSite* site) : site_(site) {}
  detail::FaultSite* site_ = nullptr;
};

/// Owner of all fault state for one run. Components receive FaultPoints via
/// their `install_faults(plane, site)` methods; scheduled faults (clock
/// step/drift) are armed explicitly. The plane must outlive every component
/// holding one of its points.
class FaultPlane {
 public:
  /// `events` may be null for fast-path (wall-clock) use; scheduled faults
  /// (link flap recovery, clock faults) then cannot be armed.
  explicit FaultPlane(FaultSpec spec, sim::EventQueue* events = nullptr);

  FaultPlane(const FaultPlane&) = delete;
  FaultPlane& operator=(const FaultPlane&) = delete;

  /// Returns a probe handle for `kind` at `site`. If no rule of the spec
  /// matches, the handle is disabled (null site — zero per-probe cost).
  FaultPoint point(FaultKind kind, const std::string& site);

  /// Schedules the spec's clock_step / clock_drift rules matching `site`
  /// against `clock`: each fires once at its window start (drift restores
  /// at the window end if one is set). Requires an event queue.
  void arm_clock_faults(sim::PtpClock& clock, const std::string& site);

  /// Exports per-site fire counts as `<prefix>.<kind>.<site>` counters plus
  /// `<prefix>.total`. Sites created later are exported on creation.
  void bind_telemetry(telemetry::MetricRegistry& registry, const std::string& prefix = "fault");

  [[nodiscard]] const FaultSpec& spec() const { return spec_; }
  [[nodiscard]] sim::EventQueue* events() const { return events_; }
  [[nodiscard]] sim::SimTime now_ps() const;
  /// Sum of fires across all sites (including scheduled clock faults).
  [[nodiscard]] std::uint64_t total_fires() const;
  /// Fires of the one site named exactly `site` (0 if absent).
  [[nodiscard]] std::uint64_t fires_at(std::string_view site) const;

  // --- probe-site registry & validation -------------------------------------

  /// One (kind, site) pair a component requested via point() /
  /// arm_clock_faults() — recorded even when no rule matched and the
  /// returned point is disabled. This is what spec validation checks rule
  /// site names against: the registry of probes that *could* fire.
  struct RequestedSite {
    FaultKind kind = FaultKind::kFrameLoss;
    std::string name;
  };
  [[nodiscard]] const std::vector<RequestedSite>& requested_sites() const { return requested_; }

  /// Rules of the spec that match no requested probe site. A typo'd site
  /// ("loss@wire.l9" on a two-link testbed) lands here: the rule can never
  /// fire, silently. Call after every component has installed its points;
  /// testbed::Testbed does this on its first run_until.
  [[nodiscard]] std::vector<const FaultRule*> unmatched_rules() const;

  // --- fire observation (flight recorder) -----------------------------------

  /// Invoked on every fire with (site name, kind, virtual time). Observation
  /// only — the hook must not probe fault points or mutate the plane. One
  /// null check per fire when unset.
  using FireHook = std::function<void(const std::string& site, FaultKind kind,
                                      sim::SimTime now_ps)>;
  void set_fire_hook(FireHook hook) { fire_hook_ = std::move(hook); }

 private:
  friend struct detail::FaultSite;

  detail::FaultSite* make_site(FaultKind kind, const std::string& site);
  void bind_site(detail::FaultSite& site);

  FaultSpec spec_;
  sim::EventQueue* events_;
  std::deque<detail::FaultSite> sites_;  // deque: stable addresses for points
  std::vector<RequestedSite> requested_;
  FireHook fire_hook_;
  std::string prefix_;
  telemetry::Binding telemetry_;
};

}  // namespace moongen::fault
