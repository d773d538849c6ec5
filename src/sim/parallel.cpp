#include "sim/parallel.hpp"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

namespace moongen::sim {

namespace {

/// Pause-hint iterations before a waiting shard starts yielding its core.
constexpr unsigned kSpinsBeforeYield = 2048;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Waits until `ready()`: `spins` pause hints, then yields. Returns false
/// as soon as `failed` is set, so a shard never waits on a dead neighbour.
template <typename Ready>
bool await(Ready ready, const std::atomic<bool>& failed, unsigned spins) {
  for (unsigned i = 0; !ready(); ++i) {
    if (failed.load(std::memory_order_acquire)) return false;
    if (i < spins) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
  return true;
}

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

}  // namespace

ParallelRuntime::ParallelRuntime(std::size_t shards)
    : incoming_(shards == 0 ? 1 : shards),
      outgoing_(shards == 0 ? 1 : shards),
      serial_next_(shards == 0 ? 1 : shards),
      serial_cur_(shards == 0 ? 1 : shards) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) shards_.push_back(std::make_unique<EventQueue>());
  heartbeats_ = std::make_unique<Heartbeat[]>(shards);
  executor_ = &ParallelRuntime::default_executor;
}

void ParallelRuntime::add_channel(std::size_t from_shard, std::size_t to_shard,
                                  SimTime lookahead_ps, std::function<void()> drain,
                                  std::function<void()> flush) {
  if (from_shard >= shards_.size() || to_shard >= shards_.size())
    throw std::out_of_range("ParallelRuntime::add_channel: shard index out of range");
  if (from_shard == to_shard)
    throw std::invalid_argument("ParallelRuntime::add_channel: channel within one shard");
  if (lookahead_ps == 0)
    throw std::invalid_argument(
        "ParallelRuntime::add_channel: zero lookahead cannot bound a window");
  auto ch = std::make_unique<Channel>();
  ch->from = from_shard;
  ch->to = to_shard;
  ch->lookahead_ps = lookahead_ps;
  ch->drain = std::move(drain);
  ch->flush = std::move(flush);
  // A channel joins at the current window: its first epoch is the next one.
  ch->epochs_flushed.store(windows_, std::memory_order_relaxed);
  ch->epochs_drained.store(windows_, std::memory_order_relaxed);
  ch->drained_seen = ch->flushed_seen = windows_;
  incoming_[to_shard].push_back(ch.get());
  outgoing_[from_shard].push_back(ch.get());
  if (lookahead_ps < window_ps_) window_ps_ = lookahead_ps;
  channels_.push_back(std::move(ch));
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
  // events (sampling ticks) due at the same instant read it. next_target
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
  const std::size_t n = shards_.size();
  std::vector<std::uint64_t>& next = serial_next_;
  std::vector<SimTime>& cur = serial_cur_;
  // Window k of shard s may run once every incoming channel has closed
  // epoch k-1 and every outgoing one stays within the lead bound: exactly
  // when a parallel worker would run it without waiting. Only this thread
  // touches the channels, so the atomics need no ordering.
  const auto ready = [this](std::size_t s, std::uint64_t k) {
    for (const Channel* ch : incoming_[s])
      if (ch->epochs_flushed.load(std::memory_order_relaxed) < k) return false;
    for (const Channel* ch : outgoing_[s])
      if (ch->epochs_drained.load(std::memory_order_relaxed) + kMaxLeadWindows <= k) return false;
    return true;
  };
  while (now_ < t) {
    const SimTime end = segment_end(t);
    const std::uint64_t first = windows_;
    std::fill(next.begin(), next.end(), first);
    std::fill(cur.begin(), cur.end(), now_);
    // Turns in index order: a shard runs its windows, each exactly as a
    // parallel worker runs it (drain every incoming epoch through k-1, run,
    // close epoch k), until it would wait. The least advanced shard never
    // waits, so every pass advances. A turn reads the clock once, and a
    // shard's busy time includes its drains and flushes.
    std::uint64_t mark = wall_ns();
    for (std::size_t behind = n; behind > 0;) {
      behind = 0;
      for (std::size_t s = 0; s < n; ++s) {
        std::uint64_t& k = next[s];
        const std::uint64_t from = k;
        for (; cur[s] < end && ready(s, k); ++k) {
          for (Channel* ch : incoming_[s]) {
            std::uint64_t drained = ch->epochs_drained.load(std::memory_order_relaxed);
            for (; drained < k; ++drained) ch->drain();
            ch->epochs_drained.store(drained, std::memory_order_relaxed);
          }
          cur[s] = window_end(cur[s], end);
          shards_[s]->run_until_untimed(cur[s]);
          for (Channel* ch : outgoing_[s]) {
            ch->flush();
            ch->epochs_flushed.store(k + 1, std::memory_order_relaxed);
          }
          auto& beat = heartbeats_[s].count;
          beat.store(beat.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
        }
        if (k != from) {
          const std::uint64_t now = wall_ns();
          shards_[s]->add_run_wall_ns(now - mark);
          mark = now;
        }
        if (cur[s] < end) ++behind;
      }
    }
    serial_windows_ += next[0] - first;
    windows_ = next[0];
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

  // Read before any worker starts: the completion step and shard 0 write
  // now_ and windows_ while the run is under way.
  const SimTime start = now_;
  const std::uint64_t first_window = windows_;
  std::vector<Work> work;
  work.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    work.emplace_back([this, s, start, first_window, &sync, &seg_end, &done, &failed,
                       &record_error] {
      EventQueue& engine = *shards_[s];
      SimTime cur = start;
      std::uint64_t k = first_window;  // index of the window about to run
      try {
        for (;;) {
          const SimTime end = seg_end;
          while (cur < end) {
            // Window k needs every epoch through k-1 of each feeding shard
            // (their frames can land in it) and none later.
            for (Channel* ch : incoming_[s]) {
              if (ch->flushed_seen < k &&
                  !await([&] {
                    ch->flushed_seen = ch->epochs_flushed.load(std::memory_order_acquire);
                    return ch->flushed_seen >= k;
                  }, failed, kSpinsBeforeYield)) {
                sync.arrive_and_drop();
                return;
              }
              std::uint64_t drained = ch->epochs_drained.load(std::memory_order_relaxed);
              if (drained == k) continue;
              for (; drained < k; ++drained) ch->drain();
              ch->epochs_drained.store(drained, std::memory_order_release);
            }
            // Lead bound: flushing epoch k must leave each consumer at most
            // kMaxLeadWindows epochs behind. A held producer yields.
            for (Channel* ch : outgoing_[s]) {
              if (ch->drained_seen + kMaxLeadWindows > k) continue;
              if (!await([&] {
                    ch->drained_seen = ch->epochs_drained.load(std::memory_order_acquire);
                    return ch->drained_seen + kMaxLeadWindows > k;
                  }, failed, 0)) {
                sync.arrive_and_drop();
                return;
              }
            }
            cur = window_end(cur, end);
            engine.run_until(cur);
            for (Channel* ch : outgoing_[s]) {
              ch->flush();
              ch->epochs_flushed.store(k + 1, std::memory_order_release);
            }
            ++k;
            heartbeats_[s].count.fetch_add(1, std::memory_order_relaxed);
          }
          if (s == 0) windows_ = k;
          sync.arrive_and_wait();
          if (done) return;
        }
      } catch (...) {
        record_error();
        // Leave the barrier so the surviving shards cannot wait for this
        // thread; they stop at their next wait or segment end.
        sync.arrive_and_drop();
      }
    });
  }
  executor_(work);
  if (first_error) std::rethrow_exception(first_error);
}

void ParallelRuntime::run_until(SimTime t) {
  // Shards joined by a channel run serially: on a 4-core host every
  // measured topology with channels ran 1.1-1.5x faster on one thread
  // than on one worker per shard, because a window costs a cross-core
  // handoff whatever work it carries. Shards without channels meet only at
  // segment ends and run in parallel.
  advance(t, shards_.size() > 1 && channels_.empty());
}

void ParallelRuntime::advance(SimTime t, bool parallel) {
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
  if (parallel) {
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
