// Watchdog: wall-clock stall detection for the parallel runtime.
//
// The segment-end barrier in sim::ParallelRuntime is the one place the
// simulation can genuinely deadlock: if a shard worker wedges (a runaway
// event loop, an injected stall that never unwinds), every other shard
// soon waits on it forever and the process just... sits. The watchdog
// gives that silence a voice: a monitor thread samples each shard's
// heartbeat counter on a wall-clock cadence, and when no shard has made
// progress for a configurable budget while the runtime claims to be
// running, it trips — invoking a callback (typically a flight recorder
// dump) with the frozen heartbeat vector.
//
// TSan-clean by construction: the monitor reads only atomics (relaxed
// heartbeats, acquire running flag) and never touches simulation state.
// One trip per stall episode: after tripping, the watchdog re-arms only
// once heartbeats move again.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace moongen::sim {
class ParallelRuntime;
}

namespace moongen::health {

struct WatchdogConfig {
  /// Heartbeat sampling period.
  std::uint64_t poll_ms = 50;
  /// Wall-clock budget: no shard progress for this long while running
  /// trips the watchdog. Must comfortably exceed the longest legitimate
  /// between-heartbeat gap (one lookahead window's worth of events).
  std::uint64_t budget_ms = 2000;
};

class Watchdog {
 public:
  /// Everything the trip callback gets: which wall-clock budget expired
  /// and the per-shard heartbeat counters frozen at trip time.
  struct StallReport {
    std::uint64_t stalled_ms = 0;
    std::vector<std::uint64_t> heartbeats;
  };
  using TripFn = std::function<void(const StallReport&)>;

  Watchdog(sim::ParallelRuntime& runtime, WatchdogConfig cfg = {});
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Registers the trip callback (invoked from the monitor thread; it must
  /// only touch data safe to read concurrently — the flight recorder's
  /// snapshot path qualifies). Set before start().
  void set_on_trip(TripFn fn) { on_trip_ = std::move(fn); }

  void start();
  void stop();

  [[nodiscard]] std::uint64_t trips() const { return trips_.load(std::memory_order_relaxed); }

 private:
  void monitor_loop();
  /// True if any shard's heartbeat differs from `seen` (which is updated).
  bool progressed(std::vector<std::uint64_t>& seen) const;

  sim::ParallelRuntime& runtime_;
  WatchdogConfig cfg_;
  TripFn on_trip_;
  std::thread thread_;
  std::atomic<bool> quit_{false};
  std::atomic<std::uint64_t> trips_{0};
};

}  // namespace moongen::health
