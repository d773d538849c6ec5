// Sharded parallel simulation runtime (conservative synchronization).
//
// The sequential engine dispatches every port, wire, and DuT of a testbed
// from one EventQueue, so multi-port scaling experiments (paper Figures
// 3/4) serialize on one core. The ParallelRuntime splits a testbed into
// shards — each shard owns one EventQueue plus the components pinned to it
// — and advances them in windows of at most W virtual picoseconds:
//
//   W = min over cross-shard channels of their lookahead (the smallest
//   possible latency of the wire they carry). A frame sent during window k
//   arrives no earlier than the end of window k, so it is enough for the
//   consumer to have drained it before window k+1. This is the classic
//   Chandy–Misra–Bryant conservative argument with the link latency as the
//   lookahead bound.
//
// Segments and windows. The global timeline (globals, window-hook due
// times, the end of run_until) cuts a run into segments; a segment ends in
// the one all-shard rendezvous, a std::barrier whose completion step runs
// the due globals single-threaded. Inside a segment each shard walks the
// same window boundaries, min(cur + W, segment end), on its own: there is
// no per-window barrier.
//
// Per-channel epochs. Every window, a producer closes an epoch on each
// outgoing channel (flush, then a release bump of the channel's epoch
// count). Before window k a consumer waits until each incoming channel has
// published epoch k-1 and drains exactly the epochs through k-1. A shard
// thus waits only on the shards that feed it, and only when they are
// behind. A producer runs at most kMaxLeadWindows ahead of what each of its
// consumers has drained, which caps what a channel buffers. Every wait is
// on a strictly less advanced shard, so the least advanced shard never
// waits and the scheme cannot deadlock. A wait spins briefly, then yields,
// and gives up when another shard has failed.
//
// Determinism contract (see DESIGN.md section 10):
//  * channels are FIFO and a consumer drains them in registration order,
//    exactly through epoch k-1 before window k — the interleaving of
//    cross-shard deliveries into a shard's event order is a function of
//    the topology, never of thread scheduling;
//  * global events (telemetry sampling ticks, experiment control) run in
//    the barrier's completion step, single-threaded, while every shard is
//    quiesced at the same virtual time.
//
// Two loops run the windows. The parallel loop gives every shard its own
// worker, which waits as described above. The serial loop runs all shards
// on the calling thread, in turns: a shard runs windows until it would
// have to wait, then the next shard takes its turn. Both run the same
// windows with the same epoch drains before each and the same globals at
// each segment end, so both produce the same results. run_until runs
// shards joined by a channel serially (a window costs a cross-core
// handoff whatever it carries, and on the measured topologies that cost
// more than the work) and shards without channels, which meet only at
// segment ends, in parallel.
//
// The runtime does not create threads itself: the caller injects an
// executor (testbed::Testbed supplies core::TaskSet pinned threads — the
// sim layer cannot depend on core). Without channels the window is
// unbounded and shards only meet at segment ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace moongen::sim {

class ParallelRuntime {
 public:
  using Work = std::function<void()>;
  /// Runs every element of `work` concurrently (one per shard) and returns
  /// after all of them finished. The default executor spawns plain
  /// std::threads.
  using Executor = std::function<void(std::vector<Work>&)>;

  explicit ParallelRuntime(std::size_t shards);

  ParallelRuntime(const ParallelRuntime&) = delete;
  ParallelRuntime& operator=(const ParallelRuntime&) = delete;

  /// Windows a producer may run ahead of a consumer's drained epoch. A
  /// segment (at most 471 windows for a 1 ms health tick on the default
  /// cable) never reaches it; it caps what a feed-forward run without
  /// globals buffers in a channel.
  static constexpr std::uint64_t kMaxLeadWindows = 4096;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] EventQueue& shard(std::size_t i) { return *shards_.at(i); }

  /// Registers a cross-shard channel. `lookahead_ps` must be > 0: it is the
  /// smallest latency a frame entering the channel can have, and bounds the
  /// synchronization window. `drain` delivers one published epoch into the
  /// destination shard (runs on the destination shard's thread); `flush`
  /// closes the current epoch on the producer side (runs on the source
  /// shard's thread). Channels must be registered before run_until.
  void add_channel(std::size_t from_shard, std::size_t to_shard, SimTime lookahead_ps,
                   std::function<void()> drain, std::function<void()> flush);

  /// Schedules `fn` at absolute virtual time `t`, executed single-threaded
  /// while all shards are quiesced at `t`. FIFO order for equal times. May
  /// only be called from the main thread (outside run_until) or from
  /// another global callback — never from shard events.
  void schedule_global(SimTime t, std::function<void()> fn);

  /// Registers a periodic hook on the global timeline: `fn(due)` runs
  /// single-threaded at every multiple of `period_ps` while all shards are
  /// quiesced there (the segment-end barrier in parallel runs), starting
  /// with the first multiple strictly after now(). Hook due times bound the
  /// segment exactly like globals, so shards stop *at* the due time —
  /// a hook never observes a shard past its boundary. Hooks fire before any
  /// global events due at the same instant (window closers run before the
  /// sampling ticks that read them) and must be registered before run_until.
  /// This is the telemetry window-merge hook: RttPlane window closes and
  /// streaming-export ticks ride on it.
  void add_window_hook(SimTime period_ps, std::function<void(SimTime)> fn);

  [[nodiscard]] std::size_t window_hook_count() const { return hooks_.size(); }

  void set_executor(Executor executor) { executor_ = std::move(executor); }

  /// Advances every shard to `t`: all events with time <= t run, clocks end
  /// at t. Shards without channels run in the parallel loop (the executor
  /// runs one worker per shard, and the workers meet at a barrier at each
  /// segment end); one shard, or shards joined by channels, run in the
  /// serial loop on the calling thread.
  void run_until(SimTime t);

  /// Global virtual time (the last window boundary reached).
  [[nodiscard]] SimTime now() const { return now_; }

  /// Synchronization window length, or UINT64_MAX with no channels.
  [[nodiscard]] SimTime window_ps() const { return window_ps_; }
  [[nodiscard]] std::size_t channel_count() const { return channels_.size(); }
  /// Lookahead windows completed over the runtime's lifetime.
  [[nodiscard]] std::uint64_t windows_run() const { return windows_; }
  /// The part of windows_run() the serial loop ran.
  [[nodiscard]] std::uint64_t serial_windows() const { return serial_windows_; }

  // --- health-plane observability (watchdog support) ------------------------
  /// Monotonic per-shard progress counter: bumped once per window the
  /// shard completes, in either loop. Relaxed atomic — safe to sample from
  /// a wall-clock monitor thread without perturbing the run.
  [[nodiscard]] std::uint64_t heartbeat(std::size_t shard) const {
    return heartbeats_[shard].count.load(std::memory_order_relaxed);
  }
  /// True while run_until is advancing shards. A watchdog accumulates stall
  /// time only while this is set: a paused experiment is not a deadlock.
  /// Note that a one-shard run with no global events heartbeats only at
  /// run_until boundaries — schedule a periodic global (the health plane's
  /// checker tick does this) to give the watchdog a pulse.
  [[nodiscard]] bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  struct Channel {
    std::size_t from = 0;
    std::size_t to = 0;
    SimTime lookahead_ps = 0;
    std::function<void()> drain;
    std::function<void()> flush;
    /// Producer side: epochs closed (one per window, release), and the
    /// consumer's drained count as last read, so the lead check loads the
    /// consumer's line only when the cached value would hold it back.
    alignas(64) std::atomic<std::uint64_t> epochs_flushed{0};
    std::uint64_t drained_seen = 0;
    /// Consumer side: epochs drained (release), and the producer's flushed
    /// count as last read. At a segment end windows_run() epochs are
    /// flushed and all but the last drained; the consumer drains that one
    /// before its next window.
    alignas(64) std::atomic<std::uint64_t> epochs_drained{0};
    std::uint64_t flushed_seen = 0;
  };

  /// Tests run the parallel loop on shards joined by channels through
  /// advance(t, true).
  friend class ParallelRuntimeTestPeer;

  /// run_until in the parallel loop or the serial one.
  void advance(SimTime t, bool parallel);
  void run_serial(SimTime t);
  void run_parallel(SimTime t);
  /// Runs all due global events at now_ (including ones scheduled by the
  /// callbacks themselves for the current time).
  void run_globals();
  /// End of the segment starting at now_: min(end, first global, first
  /// hook due time).
  [[nodiscard]] SimTime segment_end(SimTime end) const;
  /// End of the window starting at `cur` in a segment ending at `seg_end`.
  [[nodiscard]] SimTime window_end(SimTime cur, SimTime seg_end) const {
    return window_ps_ != UINT64_MAX && seg_end - cur > window_ps_ ? cur + window_ps_ : seg_end;
  }
  static void default_executor(std::vector<Work>& work);

  /// Cache-line-isolated so shard heartbeat stores never false-share.
  struct alignas(64) Heartbeat {
    std::atomic<std::uint64_t> count{0};
  };

  struct WindowHook {
    SimTime period_ps = 0;
    SimTime next_due = 0;
    std::function<void(SimTime)> fn;
  };

  std::vector<std::unique_ptr<EventQueue>> shards_;
  std::unique_ptr<Heartbeat[]> heartbeats_;
  std::atomic<bool> running_{false};
  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<std::vector<Channel*>> incoming_;  // per destination shard
  std::vector<std::vector<Channel*>> outgoing_;  // per source shard
  SimTime window_ps_ = UINT64_MAX;
  std::multimap<SimTime, std::function<void()>> globals_;
  std::vector<WindowHook> hooks_;
  Executor executor_;
  SimTime now_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t serial_windows_ = 0;
  /// run_serial's per-shard state: the window about to run and its start.
  /// Members rather than locals, so run_until allocates nothing.
  std::vector<std::uint64_t> serial_next_;
  std::vector<SimTime> serial_cur_;
};

}  // namespace moongen::sim
