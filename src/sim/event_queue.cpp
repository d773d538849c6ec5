#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <stdexcept>

namespace moongen::sim {

namespace {

constexpr std::uint64_t kNoSlot = UINT64_MAX;

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

}  // namespace

void EventQueue::schedule_at(SimTime t, Action action) {
  pool_[route_event(t)].ev.action = std::move(action);
}

std::uint32_t EventQueue::route_event(SimTime t) {
  if (t < now_) throw std::logic_error("EventQueue: scheduling into the past");
  const std::uint64_t seq = next_seq_++;
  const std::uint64_t abs_slot = t >> kSlotShift;
  const std::uint32_t node = acquire_node();
  Node& nd = pool_[node];
  nd.ev.time = t;
  nd.ev.seq = seq;
  if (abs_slot > cursor_ && abs_slot - cursor_ < kNumSlots) {
    // Wheel window: O(1) push onto the slot's node chain.
    ++wheel_scheduled_;
    const std::uint64_t idx = abs_slot & (kNumSlots - 1);
    nd.next = slot_head_[idx];
    slot_head_[idx] = node;
    occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    ++bucket_count_;
  } else if (abs_slot <= cursor_) {
    // The target slot has already been drained into ready_ (events landing
    // at or before the cursor slot, e.g. schedule_in(0)); keep ready_
    // sorted by inserting behind everything that runs earlier. A new seq is
    // larger than every pending one, so upper_bound by time alone suffices.
    ++wheel_scheduled_;
    const auto pos = std::upper_bound(
        ready_.begin() + static_cast<std::ptrdiff_t>(ready_pos_), ready_.end(),
        EventKey{t, seq, node}, Sooner{});
    ready_.insert(pos, EventKey{t, seq, node});
  } else {
    ++heap_scheduled_;
    nd.next = kNil;
    heap_.push_back(EventKey{t, seq, node});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  return node;
}

std::uint64_t EventQueue::next_occupied_slot() const {
  if (bucket_count_ == 0) return kNoSlot;
  // Scan the occupancy bitmap circularly starting just past the cursor. The
  // active window is (cursor_, cursor_ + kNumSlots), so every set bit maps
  // to exactly one absolute slot in that range.
  const std::uint64_t start = cursor_ + 1;
  std::uint64_t bit = start & (kNumSlots - 1);
  std::uint64_t word_idx = bit >> 6;
  std::uint64_t word = occupied_[word_idx] & (~std::uint64_t{0} << (bit & 63));
  for (std::size_t scanned = 0;;) {
    if (word != 0) {
      const auto found_bit = (word_idx << 6) + static_cast<std::uint64_t>(std::countr_zero(word));
      // Map the ring position back to an absolute slot index in the window.
      const std::uint64_t delta = (found_bit - start) & (kNumSlots - 1);
      return start + delta;
    }
    ++scanned;
    if (scanned >= kNumSlots / 64 + 1) return kNoSlot;
    word_idx = (word_idx + 1) & (kNumSlots / 64 - 1);
    word = occupied_[word_idx];
  }
}

void EventQueue::drain_slot(std::uint64_t abs_slot) {
  const std::uint64_t idx = abs_slot & (kNumSlots - 1);
  occupied_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
  ready_.clear();
  ready_pos_ = 0;
  std::uint32_t n = slot_head_[idx];
  slot_head_[idx] = kNil;
  while (n != kNil) {
    const Event& e = pool_[n].ev;
    ready_.push_back(EventKey{e.time, e.seq, n});
    n = pool_[n].next;
  }
  bucket_count_ -= ready_.size();
  // The chain is LIFO scheduling order; reversing it restores FIFO, which
  // for the common monotonically-scheduled bucket is already (time, seq)
  // order — the sort then only runs for out-of-order mixes.
  if (ready_.size() > 1) {
    std::reverse(ready_.begin(), ready_.end());
    if (!std::is_sorted(ready_.begin(), ready_.end(), Sooner{})) {
      std::sort(ready_.begin(), ready_.end(), Sooner{});
    }
  }
  cursor_ = abs_slot;
}

void EventQueue::sync_cursor() {
  const std::uint64_t target = now_ >> kSlotShift;
  if (target <= cursor_) return;
  // All ready_ events belong to slots <= cursor_ < target, i.e. they ran
  // before now_ advanced here; the buffer is fully consumed.
  if ((occupied_[(target & (kNumSlots - 1)) >> 6] >> (target & 63)) & 1u) {
    drain_slot(target);
  } else {
    ready_.clear();
    ready_pos_ = 0;
    cursor_ = target;
  }
}

const EventQueue::Event* EventQueue::peek_next(bool& from_heap) {
  const Event* wheel = nullptr;
  if (ready_pos_ < ready_.size()) {
    wheel = &pool_[ready_[ready_pos_].node].ev;
  } else {
    const std::uint64_t s = next_occupied_slot();
    if (s != kNoSlot) {
      const SimTime slot_start = static_cast<SimTime>(s) << kSlotShift;
      if (!heap_.empty() && heap_.front().time < slot_start) {
        // The heap event runs strictly before anything in slot s; do NOT
        // advance the cursor past slots that new events may still target.
        from_heap = true;
        return &pool_[heap_.front().node].ev;
      }
      drain_slot(s);
      wheel = &pool_[ready_[ready_pos_].node].ev;
    }
  }
  if (!heap_.empty()) {
    const EventKey& h = heap_.front();
    if (wheel == nullptr ||
        (h.time != wheel->time ? h.time < wheel->time : h.seq < wheel->seq)) {
      from_heap = true;
      return &pool_[h.node].ev;
    }
  }
  if (wheel != nullptr) {
    from_heap = false;
    return wheel;
  }
  return nullptr;
}

void EventQueue::execute(bool from_heap) {
  // Steal only the action: the node returns to the freelist before the
  // action runs, so a self-rescheduling timer reuses its own (cache-hot)
  // node. The action must be moved out first — the body may schedule, which
  // can grow pool_ and invalidate node references.
  std::uint32_t node;
  if (from_heap) {
    node = heap_.front().node;
    now_ = heap_.front().time;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  } else {
    const EventKey& k = ready_[ready_pos_++];
    node = k.node;
    now_ = k.time;
  }
  Action act(std::move(pool_[node].ev.action));
  const std::uint64_t seq = pool_[node].ev.seq;
  release_node(node);
  sync_cursor();
  ++executed_;
  if (trace_sink_ != nullptr) trace_sink_->on_event(now_, seq);
  act();
}

bool EventQueue::step() {
  bool from_heap = false;
  if (peek_next(from_heap) == nullptr) return false;
  target_ = UINT64_MAX;
  execute(from_heap);
  target_ = now_;
  return true;
}

void EventQueue::run_until(SimTime t, SimTime target) {
  const std::uint64_t t0 = wall_ns();
  target_ = target;
  while (!stopped_) {
    bool from_heap = false;
    const Event* next = peek_next(from_heap);
    if (next == nullptr || next->time > t) break;
    execute(from_heap);
  }
  if (!stopped_ && now_ < t) {
    now_ = t;
    sync_cursor();
  }
  target_ = now_;
  run_wall_ns_ += wall_ns() - t0;
}

void EventQueue::run() {
  const std::uint64_t t0 = wall_ns();
  while (!stopped_ && step()) {
  }
  run_wall_ns_ += wall_ns() - t0;
}

std::string EventQueue::audit() const {
  std::vector<char> seen(pool_.size(), 0);
  const auto touch = [&](std::uint32_t node, const char* where) -> std::string {
    if (node >= pool_.size())
      return std::string(where) + ": node index " + std::to_string(node) +
             " outside pool of " + std::to_string(pool_.size());
    if (seen[node] != 0)
      return std::string(where) + ": node " + std::to_string(node) +
             " reachable twice (cycle or double release)";
    seen[node] = 1;
    return {};
  };

  // Freelist: bounded walk (a cycle would otherwise loop forever).
  std::size_t free_count = 0;
  for (std::uint32_t n = free_head_; n != kNil; n = pool_[n].next) {
    if (auto err = touch(n, "freelist"); !err.empty()) return err;
    if (++free_count > pool_.size()) return "freelist: longer than the pool (cycle)";
  }

  // Wheel slots: chain lengths vs. bucket_count_, occupancy bits, event
  // times within the horizon and not in the past.
  std::size_t wheel_count = 0;
  for (std::size_t idx = 0; idx < kNumSlots; ++idx) {
    const bool bit = ((occupied_[idx >> 6] >> (idx & 63)) & 1u) != 0;
    const bool has_chain = slot_head_[idx] != kNil;
    if (bit != has_chain)
      return "wheel slot " + std::to_string(idx) + ": occupancy bit " +
             (bit ? "set" : "clear") + " but chain " + (has_chain ? "non-empty" : "empty");
    for (std::uint32_t n = slot_head_[idx]; n != kNil; n = pool_[n].next) {
      if (auto err = touch(n, "wheel chain"); !err.empty()) return err;
      ++wheel_count;
      const Event& e = pool_[n].ev;
      if (e.time < now_)
        return "wheel event at t=" + std::to_string(e.time) + " ps is before now=" +
               std::to_string(now_) + " ps (monotonicity)";
      const std::uint64_t abs_slot = e.time >> kSlotShift;
      if ((abs_slot & (kNumSlots - 1)) != idx)
        return "wheel event at t=" + std::to_string(e.time) + " ps hashed to slot " +
               std::to_string(abs_slot & (kNumSlots - 1)) + " but found in slot " +
               std::to_string(idx);
      if (abs_slot <= cursor_ || abs_slot - cursor_ >= kNumSlots)
        return "wheel event at t=" + std::to_string(e.time) +
               " ps outside the horizon of cursor slot " + std::to_string(cursor_);
    }
  }
  if (wheel_count != bucket_count_)
    return "wheel holds " + std::to_string(wheel_count) + " events but bucket_count_ says " +
           std::to_string(bucket_count_);

  // Ready buffer tail (drained cursor slot, not yet executed).
  for (std::size_t i = ready_pos_; i < ready_.size(); ++i) {
    if (auto err = touch(ready_[i].node, "ready buffer"); !err.empty()) return err;
    const Event& e = pool_[ready_[i].node].ev;
    if (e.time < now_)
      return "ready event at t=" + std::to_string(e.time) + " ps is before now=" +
             std::to_string(now_) + " ps (monotonicity)";
  }

  // Overflow heap.
  for (const EventKey& k : heap_) {
    if (auto err = touch(k.node, "overflow heap"); !err.empty()) return err;
    if (pool_[k.node].ev.time < now_)
      return "heap event at t=" + std::to_string(pool_[k.node].ev.time) +
             " ps is before now=" + std::to_string(now_) + " ps (monotonicity)";
  }

  const std::size_t reachable =
      free_count + wheel_count + (ready_.size() - ready_pos_) + heap_.size();
  if (reachable != pool_.size())
    return "node conservation: freelist " + std::to_string(free_count) + " + wheel " +
           std::to_string(wheel_count) + " + ready " +
           std::to_string(ready_.size() - ready_pos_) + " + heap " +
           std::to_string(heap_.size()) + " != pool " + std::to_string(pool_.size());
  return {};
}

void EventQueue::bind_telemetry(telemetry::MetricRegistry& registry, const std::string& prefix) {
  telemetry_.open(registry);
  telemetry_.counter(prefix + ".events_executed", [this] { return executed_; });
  telemetry_.counter(prefix + ".wheel_scheduled", [this] { return wheel_scheduled_; });
  telemetry_.counter(prefix + ".heap_scheduled", [this] { return heap_scheduled_; });
  telemetry_.gauge(prefix + ".events_per_wall_second", [this] {
    return run_wall_ns_ > 0
               ? static_cast<double>(executed_) / (static_cast<double>(run_wall_ns_) / 1e9)
               : 0.0;
  });
}

}  // namespace moongen::sim
