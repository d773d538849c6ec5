#include "sim/parallel.hpp"

#include <barrier>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

namespace moongen::sim {

ParallelRuntime::ParallelRuntime(std::size_t shards) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) shards_.push_back(std::make_unique<EventQueue>());
  heartbeats_ = std::make_unique<Heartbeat[]>(shards);
  executor_ = &ParallelRuntime::default_executor;
}

void ParallelRuntime::schedule_global(SimTime t, std::function<void()> fn) {
  if (t < now_) throw std::logic_error("ParallelRuntime: scheduling a global into the past");
  globals_.emplace(t, std::move(fn));
}

void ParallelRuntime::add_window_hook(SimTime period_ps, std::function<void(SimTime)> fn) {
  if (period_ps == 0)
    throw std::invalid_argument("ParallelRuntime::add_window_hook: zero period");
  WindowHook hook;
  hook.period_ps = period_ps;
  // First firing strictly after now(): a hook registered at t=0 first runs
  // at period_ps, so every window spans exactly one period.
  hook.next_due = (now_ / period_ps + 1) * period_ps;
  hook.fn = std::move(fn);
  hooks_.push_back(std::move(hook));
}

SimTime ParallelRuntime::segment_end(SimTime end) const {
  SimTime next = end;
  if (!globals_.empty() && globals_.begin()->first < next) next = globals_.begin()->first;
  for (const auto& hook : hooks_)
    if (hook.next_due < next) next = hook.next_due;
  return next;
}

void ParallelRuntime::run_globals() {
  // Periodic hooks first: a window closer must publish before the global
  // events (sampling ticks) due at the same instant read it. segment_end
  // stops every run at each due time, so the catch-up loop runs at most
  // once per hook except when run_until jumps past due times with no
  // shards to advance (t == now_ fast path never does).
  for (auto& hook : hooks_) {
    while (hook.next_due <= now_) {
      const SimTime due = hook.next_due;
      hook.next_due += hook.period_ps;
      hook.fn(due);
    }
  }
  // Callbacks may schedule further globals at the current time; keep
  // draining until none are due (mirrors the event queue's same-time FIFO).
  while (!globals_.empty() && globals_.begin()->first <= now_) {
    auto fn = std::move(globals_.begin()->second);
    globals_.erase(globals_.begin());
    fn();
  }
}

void ParallelRuntime::run_serial(SimTime t) {
  while (now_ < t) {
    const SimTime end = segment_end(t);
    run_shard(0, end, t);
    ++windows_;
    now_ = end;
    run_globals();
  }
}

void ParallelRuntime::run_parallel(SimTime t) {
  const std::size_t n = shards_.size();
  SimTime seg_end = segment_end(t);
  bool done = false;
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto record_error = [&] {
    {
      std::scoped_lock lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
    failed.store(true, std::memory_order_release);
  };

  // Completion step: every shard is quiesced at the segment end — advance
  // global time, run due globals single-threaded, pick the next segment.
  auto on_segment = [&]() noexcept {
    now_ = seg_end;
    if (!failed.load(std::memory_order_acquire)) {
      ++windows_;
      try {
        run_globals();
      } catch (...) {
        record_error();
      }
    }
    if (now_ >= t || failed.load(std::memory_order_acquire)) {
      done = true;
      return;
    }
    seg_end = segment_end(t);
  };
  std::barrier sync(static_cast<std::ptrdiff_t>(n), on_segment);

  std::vector<Work> work;
  work.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    work.emplace_back([this, s, t, &sync, &seg_end, &done, &record_error] {
      try {
        do {
          run_shard(s, seg_end, t);
          sync.arrive_and_wait();
        } while (!done);
      } catch (...) {
        record_error();
        // Leave the barrier so the surviving shards cannot wait for this
        // thread; they stop at the segment end.
        sync.arrive_and_drop();
      }
    });
  }
  executor_(work);
  if (first_error) std::rethrow_exception(first_error);
}

void ParallelRuntime::run_until(SimTime t) {
  if (t < now_) throw std::logic_error("ParallelRuntime: run_until into the past");
  if (t == now_) {
    run_globals();
    return;
  }
  // Flag the run for watchdog monitors; cleared even on exception so a
  // failed run is never mistaken for a stall.
  struct RunningGuard {
    std::atomic<bool>& flag;
    explicit RunningGuard(std::atomic<bool>& f) : flag(f) { flag.store(true, std::memory_order_release); }
    ~RunningGuard() { flag.store(false, std::memory_order_release); }
  } guard(running_);
  // Shards share nothing and meet only at segment ends, so several of them
  // run in parallel; one needs no worker.
  if (shards_.size() > 1) {
    run_parallel(t);
  } else {
    run_serial(t);
  }
}

void ParallelRuntime::default_executor(std::vector<Work>& work) {
  std::vector<std::thread> threads;
  threads.reserve(work.size());
  for (auto& w : work) threads.emplace_back(w);
  for (auto& th : threads) th.join();
}

}  // namespace moongen::sim
