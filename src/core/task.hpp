// Task system: the C++ face of `mg.launchLua` / `mg.waitForSlaves`.
//
// MoonGen spawns each slave as an independent LuaJIT VM pinned to a CPU
// core; tasks share nothing except explicit pipes (paper Section 3.4).
// Here every task is a pinned thread running a plain function, and the
// global run flag mirrors `dpdk.running()`.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

namespace moongen::core {

/// Run/stop state of one experiment: the flag behind `dpdk.running()`.
///
/// Every testbed::Testbed owns a private RunState, so parallel shards and
/// back-to-back experiments in one process cannot race each other's resets;
/// the free functions below operate on the process-global instance for
/// script parity and legacy callers.
///
/// Memory ordering: running() is an acquire load and request_stop() a
/// release store, so a task that observes the stop also observes everything
/// the stopping thread wrote before it (final stats, shutdown markers) —
/// with the old relaxed loads that was only true by accident of x86.
class RunState {
 public:
  RunState();
  RunState(const RunState&) = delete;
  RunState& operator=(const RunState&) = delete;

  /// Equivalent of `dpdk.running()`: transmit/receive loops poll this.
  [[nodiscard]] bool running() const;

  /// Asks all tasks to wind down (mirrors MoonGen's SIGINT handling).
  void request_stop();

  /// Re-arms the run flag (between experiments in one process) and
  /// invalidates any timers armed by earlier stop_after calls.
  void reset();

  /// Requests stop after `seconds` of wall-clock time, from a helper
  /// thread. Returns immediately. The timer is generation-counted (a
  /// reset() makes a pending timer a no-op) and holds only a weak
  /// reference to this state, so it cannot fire into a destroyed testbed.
  void stop_after(double seconds);

  /// Generation of the run state; bumped by reset(). Exposed for tests of
  /// the stop_after invalidation contract.
  [[nodiscard]] std::uint64_t generation() const;

  /// The process-global instance the free functions delegate to.
  static RunState& global();

 private:
  struct State {
    std::atomic<bool> flag{true};
    std::atomic<std::uint64_t> generation{0};
  };
  /// Shared so detached stop_after timers can outlive the RunState safely.
  std::shared_ptr<State> state_;
};

/// Equivalent of `dpdk.running()` on the process-global run state.
bool running();

/// Asks all tasks to wind down (mirrors MoonGen's SIGINT handling).
void request_stop();

/// Re-arms the global run flag (between experiments in one process) and
/// invalidates any timers armed by earlier stop_after calls.
void reset_run_state();

/// RunState::stop_after on the process-global instance.
void stop_after(double seconds);

/// RunState::generation of the process-global instance.
std::uint64_t run_generation();

class TaskSet {
 public:
  TaskSet() = default;
  TaskSet(const TaskSet&) = delete;
  TaskSet& operator=(const TaskSet&) = delete;
  ~TaskSet() { wait(); }

  /// Launches `fn(args...)` in a new task pinned to the next CPU core
  /// (round-robin). Mirrors `mg.launchLua("slave", args...)`.
  template <typename F, typename... Args>
  void launch(std::string name, F&& fn, Args&&... args) {
    launch_impl(std::move(name),
                [fn = std::forward<F>(fn),
                 tup = std::make_tuple(std::forward<Args>(args)...)]() mutable {
                  std::apply(fn, std::move(tup));
                });
  }

  /// Joins all tasks (mirrors `mg.waitForSlaves()`).
  void wait();

  [[nodiscard]] std::size_t task_count() const { return threads_.size(); }

 private:
  void launch_impl(std::string name, std::function<void()> body);

  std::vector<std::thread> threads_;
  int next_core_ = 0;
};

}  // namespace moongen::core
