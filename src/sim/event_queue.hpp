// Discrete-event simulation engine.
//
// A single-threaded event queue with deterministic ordering: events at the
// same virtual time run in scheduling (FIFO) order. All hardware models
// (NICs, wires, the DuT) and the "software" processes of the simulated
// generators are driven from this queue.
//
// Hot-path design (see DESIGN.md, "Event-engine fast path"):
//  * actions are InlineFunction — closures up to 48 bytes are stored inline
//    in the event record, no heap allocation per event;
//  * near-future timers (within ~33.5 us of the cursor) go into a timing
//    wheel of 4096 slots of 8.192 ns — schedule + dispatch are O(1)
//    bucket operations for the back-to-back frame cadence;
//  * far timers overflow into a binary heap and are merged event-by-event
//    with the wheel stream, preserving exact (time, seq) order across the
//    wheel/heap boundary;
//  * all pending events live in one contiguous node pool with LIFO reuse —
//    wheel slots and the heap hold 4-byte links/24-byte keys, so the few
//    in-flight events of a typical simulation stay in a few cache lines.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/time.hpp"
#include "telemetry/registry.hpp"

namespace moongen::sim {

/// Observer of executed events (the health plane's flight recorder). The
/// sink sees (time, seq) immediately before each action runs; it must not
/// schedule or mutate the queue. Null by default — one pointer check per
/// event when unset.
class EventTraceSink {
 public:
  virtual ~EventTraceSink() = default;
  virtual void on_event(SimTime time_ps, std::uint64_t seq) = 0;
};

class EventQueue {
 public:
  using Action = InlineFunction;

  // Wheel geometry: 4096 slots of 2^13 ps (8.192 ns) cover a horizon of
  // ~33.5 us — beyond the per-frame delays of the NIC and wire models (a
  // full-size frame at GbE serializes in 12.3 us, a DMA fetch takes under
  // 1 us). A slot is shorter than a minimum frame at 40 GbE (16.8 ns;
  // port.cpp asserts it), so an event one frame ahead lands in a later
  // slot, an O(1) chain push, rather than in the drained cursor slot, a
  // sorted insert. Timers further out (experiment stops, Timestamper
  // samples, forwarder interrupt gaps, long RPC service times) go to the
  // overflow heap.
  static constexpr unsigned kSlotShift = 13;
  static constexpr std::size_t kNumSlots = 4096;
  static constexpr SimTime kSlotWidth = SimTime{1} << kSlotShift;
  static constexpr SimTime kHorizonPs = kSlotWidth * kNumSlots;

  EventQueue() {
    slot_head_.fill(kNil);
    // Reserve pool headroom up front: growing the node pool relocates every
    // pending closure (an indirect call per node), which dominates bursty
    // schedule patterns. The reservation is virtual address space only —
    // pages are committed on first touch, so small sims stay small.
    pool_.reserve(32768);
  }
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Current virtual time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `action` at absolute time `t` (>= now()).
  void schedule_at(SimTime t, Action action);

  /// Schedules `action` `delay` picoseconds from now.
  void schedule_in(SimTime delay, Action action) { schedule_at(now_ + delay, std::move(action)); }

  /// Hot-path variants: statically assert that the closure is stored inline
  /// (no heap allocation). Use these from per-frame code; a capture that
  /// grows beyond InlineFunction::kCapacity then fails to compile instead
  /// of silently reintroducing a malloc per event. The closure is emplaced
  /// directly into the pooled event record — zero relocations on the way in.
  template <typename F>
  void schedule_at_inline(SimTime t, F&& f) {
    static_assert(InlineFunction::fits_inline<std::decay_t<F>>(),
                  "hot-path event closure must fit InlineFunction's inline buffer");
    pool_[route_event(t)].ev.action.emplace(std::forward<F>(f));
  }
  template <typename F>
  void schedule_in_inline(SimTime delay, F&& f) {
    schedule_at_inline(now_ + delay, std::forward<F>(f));
  }

  /// Runs the next pending event; returns false if the queue is empty.
  bool step();

  /// Runs all events with time <= `t`, then advances the clock to `t`.
  void run_until(SimTime t) { run_until(t, t); }

  /// As run_until(t), for one segment of a run that ends at `target`
  /// (>= t): run_target() reads `target` meanwhile.
  void run_until(SimTime t, SimTime target);

  /// Runs until no events remain or `stop()` is called.
  void run();

  /// Where the caller's run ends: its run_until target, the end of time
  /// inside run() and step(), now() between runs. A port batches frames
  /// that end by this time only, so a run stops where a per-frame run would.
  [[nodiscard]] SimTime run_target() const { return target_; }

  /// Requests `run`/`run_until` to return after the current event.
  void stop() { stopped_ = true; }
  [[nodiscard]] bool stopped() const { return stopped_; }

  [[nodiscard]] std::size_t pending() const {
    return bucket_count_ + (ready_.size() - ready_pos_) + heap_.size();
  }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Scheduling-route counters: events that entered the timer wheel vs. the
  /// overflow heap (engine-efficiency telemetry; wheel share should be ~1
  /// for frame-dominated workloads).
  [[nodiscard]] std::uint64_t wheel_scheduled() const { return wheel_scheduled_; }
  [[nodiscard]] std::uint64_t heap_scheduled() const { return heap_scheduled_; }
  /// Wall-clock nanoseconds spent inside run()/run_until().
  [[nodiscard]] std::uint64_t run_wall_ns() const { return run_wall_ns_; }

  /// Attaches (or detaches, with nullptr) an executed-event observer.
  /// Observation only: the sink never alters scheduling order or timing, so
  /// traced runs stay byte-identical to untraced ones.
  void set_trace_sink(EventTraceSink* sink) { trace_sink_ = sink; }
  [[nodiscard]] EventTraceSink* trace_sink() const { return trace_sink_; }

  /// Structural invariant audit (the health plane's engine checker). Walks
  /// the node pool, freelist, wheel slots, occupancy bitmap, ready buffer
  /// and overflow heap and cross-checks their accounting:
  ///   * freelist + wheel chains + ready tail + heap == pool size, with no
  ///     node reachable twice (a cycle or double-release corrupts this);
  ///   * bucket_count_ equals the summed wheel chain lengths and the
  ///     occupancy bitmap marks exactly the non-empty slots;
  ///   * no pending event is scheduled before now() (time monotonicity) and
  ///     every wheel-resident event lies within the wheel horizon of the
  ///     cursor slot.
  /// Returns an empty string when consistent, else a description of the
  /// first violated invariant. O(pool size) — call at window boundaries,
  /// not per event.
  [[nodiscard]] std::string audit() const;

  /// Registers readers of `<prefix>.events_executed`,
  /// `<prefix>.wheel_scheduled`, `<prefix>.heap_scheduled` (counters) and
  /// `<prefix>.events_per_wall_second` (gauge) in `registry`.
  void bind_telemetry(telemetry::MetricRegistry& registry, const std::string& prefix);

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    Action action;
  };
  static constexpr std::uint32_t kNil = 0xffffffffu;
  /// Pool node: every pending event lives in pool_; wheel slots chain nodes
  /// through `next` (also the freelist link). One contiguous allocation and
  /// LIFO node reuse keep the working set a few cache lines for the typical
  /// handful of in-flight events, instead of 4096 scattered slot vectors.
  struct Node {
    Event ev;
    std::uint32_t next = kNil;
  };
  /// Sort key plus pool reference — what ready_ and the overflow heap hold.
  /// Sorting and heap sifts move 24-byte keys and compare without touching
  /// the pool, never the event record itself.
  struct EventKey {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t node;
  };
  struct Sooner {
    bool operator()(const EventKey& a, const EventKey& b) const {
      return a.time != b.time ? a.time < b.time : a.seq < b.seq;
    }
  };
  struct Later {
    bool operator()(const EventKey& a, const EventKey& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  std::uint32_t acquire_node() {
    if (free_head_ != kNil) {
      const std::uint32_t idx = free_head_;
      free_head_ = pool_[idx].next;
      return idx;
    }
    pool_.emplace_back();
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }
  void release_node(std::uint32_t idx) {
    pool_[idx].next = free_head_;
    free_head_ = idx;
  }

  /// Allocates a pool node for an event at `t`, routes it into the wheel,
  /// ready_ or the overflow heap, and returns the node index; the caller
  /// fills in the action (by move, or in place via emplace).
  std::uint32_t route_event(SimTime t);

  /// Returns the next event in (time, seq) order without executing it, or
  /// nullptr when empty. May drain the next occupied wheel slot into
  /// `ready_`. Sets `from_heap` to where the event lives.
  const Event* peek_next(bool& from_heap);
  /// Pops the event returned by peek_next and runs it.
  void execute(bool from_heap);
  /// Advances the wheel cursor to now_'s slot, draining its bucket.
  void sync_cursor();
  /// Sorts bucket at absolute slot `abs_slot` into ready_, making it the
  /// cursor slot.
  void drain_slot(std::uint64_t abs_slot);
  /// Absolute index of the first occupied slot after cursor_, or UINT64_MAX.
  [[nodiscard]] std::uint64_t next_occupied_slot() const;

  // --- event storage --------------------------------------------------------
  std::vector<Node> pool_;
  std::uint32_t free_head_ = kNil;  // head of the released-node LIFO

  // --- timer wheel (near future) -------------------------------------------
  std::array<std::uint32_t, kNumSlots> slot_head_;  // per-slot node chain
  std::array<std::uint64_t, kNumSlots / 64> occupied_{};
  std::size_t bucket_count_ = 0;  // events residing in wheel slots
  std::uint64_t cursor_ = 0;      // absolute slot index of ready_'s slot
  std::vector<EventKey> ready_;   // drained cursor slot, sorted (time, seq)
  std::size_t ready_pos_ = 0;

  // --- overflow heap (far future) ------------------------------------------
  std::vector<EventKey> heap_;  // binary min-heap via std::push_heap/pop_heap

  SimTime now_ = 0;
  SimTime target_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;

  std::uint64_t wheel_scheduled_ = 0;
  std::uint64_t heap_scheduled_ = 0;
  std::uint64_t run_wall_ns_ = 0;

  EventTraceSink* trace_sink_ = nullptr;
  telemetry::Binding telemetry_;
};

}  // namespace moongen::sim
