// Sharded parallel simulation runtime.
//
// The sequential engine dispatches every port, wire, and DuT of a testbed
// from one EventQueue, so multi-port scaling experiments (paper Figures
// 3/4) serialize on one core. The ParallelRuntime splits a testbed into
// shards — each shard owns one EventQueue plus the components placed on
// it. Shards share nothing: no frame or event crosses from one to another,
// just as MoonGen's slave tasks, one per core and queue, share nothing.
// run_until picks its loop from the shard count alone:
//
//  * several shards run on executor workers, one per shard, that meet only
//    at segment ends;
//  * one shard runs on the calling thread, one run_shard call per segment.
//
// Segments. The global timeline (globals, window-hook due times, the end of
// run_until) cuts a run into segments. At a segment end every shard is
// quiesced at the same virtual time, and the due hooks and globals run
// single-threaded (with several shards, in the completion step of the
// std::barrier the workers meet at).
//
// Determinism contract (see DESIGN.md section 10):
//  * a shard's event order is a function of its own components, never of
//    thread scheduling;
//  * global events (telemetry sampling ticks, experiment control) run
//    single-threaded while every shard is quiesced at the same virtual time.
//
// The runtime does not create threads itself: the caller injects an
// executor (testbed::Testbed supplies core::TaskSet pinned threads — the
// sim layer cannot depend on core).
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

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] EventQueue& shard(std::size_t i) { return *shards_.at(i); }

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
  /// at t. Several shards run in the parallel loop (the executor runs one
  /// worker per shard, and the workers meet at a barrier at each segment
  /// end); one shard runs segment by segment on the calling thread.
  void run_until(SimTime t);

  /// Global virtual time (the last segment end reached).
  [[nodiscard]] SimTime now() const { return now_; }

  /// Windows completed over the runtime's lifetime. A window is one
  /// segment: shards meet only at segment ends.
  [[nodiscard]] std::uint64_t windows_run() const { return windows_; }

  // --- health-plane observability (watchdog support) ------------------------
  /// Monotonic per-shard progress counter: bumped once per segment the
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
  void run_serial(SimTime t);
  void run_parallel(SimTime t);
  /// Runs all due global events at now_ (including ones scheduled by the
  /// callbacks themselves for the current time).
  void run_globals();
  /// End of the segment starting at now_: min(end, first global, first
  /// hook due time).
  [[nodiscard]] SimTime segment_end(SimTime end) const;
  /// Runs shard `s` to `t`, a segment of the caller's run to `target`,
  /// and counts the segment in its heartbeat (each heartbeat has one
  /// writer, so a relaxed load and store suffice). Segment ends do not cut
  /// TX batches: a monitored run batches as an unmonitored one does.
  void run_shard(std::size_t s, SimTime t, SimTime target) {
    shards_[s]->run_until(t, target);
    auto& beat = heartbeats_[s].count;
    beat.store(beat.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
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
  std::multimap<SimTime, std::function<void()>> globals_;
  std::vector<WindowHook> hooks_;
  Executor executor_;
  SimTime now_ = 0;
  std::uint64_t windows_ = 0;
};

}  // namespace moongen::sim
