#include "core/task.hpp"

#include <chrono>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace moongen::core {

void pin_to_core(int core) {
#ifdef __linux__
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(core) % hw, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)core;
#endif
}

RunState::RunState() : state_(std::make_shared<State>()) {}

bool RunState::running() const { return state_->flag.load(std::memory_order_acquire); }

void RunState::request_stop() { state_->flag.store(false, std::memory_order_release); }

void RunState::reset() {
  // Bump the generation first: a stop_after timer armed under the old
  // generation that fires between the two stores sees the new generation
  // and stands down instead of stopping the next experiment.
  state_->generation.fetch_add(1, std::memory_order_acq_rel);
  state_->flag.store(true, std::memory_order_release);
}

std::uint64_t RunState::generation() const {
  return state_->generation.load(std::memory_order_acquire);
}

void RunState::stop_after(double seconds) {
  const std::uint64_t armed_gen = generation();
  std::thread([weak = std::weak_ptr<State>(state_), seconds, armed_gen] {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    const auto state = weak.lock();
    if (state == nullptr) return;  // the owning RunState is gone
    if (state->generation.load(std::memory_order_acquire) == armed_gen)
      state->flag.store(false, std::memory_order_release);
  }).detach();
}

RunState& RunState::global() {
  static RunState state;
  return state;
}

bool running() { return RunState::global().running(); }

void request_stop() { RunState::global().request_stop(); }

void reset_run_state() { RunState::global().reset(); }

std::uint64_t run_generation() { return RunState::global().generation(); }

void stop_after(double seconds) { RunState::global().stop_after(seconds); }

void TaskSet::launch_impl(std::string name, std::function<void()> body) {
  const int core = next_core_++;
  threads_.emplace_back([core, name = std::move(name), body = std::move(body)] {
    pin_to_core(core);
    body();
  });
}

void TaskSet::wait() {
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

}  // namespace moongen::core
