// Unit tests for the discrete-event engine, PTP clock models and the
// clock-synchronization algorithm (paper Sections 6.1-6.3).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <set>
#include <vector>

#include "sim/clock_sync.hpp"
#include "sim/event_queue.hpp"
#include "sim/ptp_clock.hpp"
#include "sim/time.hpp"
#include "stats/mt19937_64.hpp"
#include "telemetry/registry.hpp"

namespace ms = moongen::sim;

// ---------------------------------------------------------------------------
// Event queue
// ---------------------------------------------------------------------------

TEST(EventQueue, ExecutesInTimeOrder) {
  ms::EventQueue q;
  std::vector<int> order;
  q.schedule_at(300, [&] { order.push_back(3); });
  q.schedule_at(100, [&] { order.push_back(1); });
  q.schedule_at(200, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 300u);
}

TEST(EventQueue, FifoAmongEqualTimes) {
  ms::EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) q.schedule_at(50, [&order, i] { order.push_back(i); });
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  ms::EventQueue q;
  int fired = 0;
  std::function<void()> tick = [&] {
    if (++fired < 5) q.schedule_in(10, tick);
  };
  q.schedule_at(0, tick);
  q.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(q.now(), 40u);
}

TEST(EventQueue, RunUntilAdvancesClockWithoutEvents) {
  ms::EventQueue q;
  q.run_until(12345);
  EXPECT_EQ(q.now(), 12345u);
}

TEST(EventQueue, RunUntilLeavesLaterEventsPending) {
  ms::EventQueue q;
  int fired = 0;
  q.schedule_at(100, [&] { ++fired; });
  q.schedule_at(200, [&] { ++fired; });
  q.run_until(150);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.now(), 150u);
  q.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, StopAbortsRun) {
  ms::EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] {
    ++fired;
    q.stop();
  });
  q.schedule_at(20, [&] { ++fired; });
  q.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.stopped());
}

TEST(EventQueue, SchedulingIntoThePastThrows) {
  ms::EventQueue q;
  q.schedule_at(100, [] {});
  q.run();
  EXPECT_THROW(q.schedule_at(50, [] {}), std::logic_error);
}

TEST(EventQueue, RoutesNearTimersToWheelAndFarToHeap) {
  ms::EventQueue q;
  q.schedule_in(ms::EventQueue::kHorizonPs - 1, [] {});  // last wheel slot
  EXPECT_EQ(q.wheel_scheduled(), 1u);
  EXPECT_EQ(q.heap_scheduled(), 0u);
  q.schedule_in(ms::EventQueue::kHorizonPs, [] {});  // first heap time
  EXPECT_EQ(q.heap_scheduled(), 1u);
  q.schedule_in(0, [] {});  // cursor slot: wheel (sorted ready insert)
  EXPECT_EQ(q.wheel_scheduled(), 2u);
  q.run();
  EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueue, FifoAcrossWheelHeapBoundary) {
  // Two events at the SAME time T, scheduled from different distances: the
  // first lands in the overflow heap (T is beyond the horizon), the second
  // in the wheel (scheduled later, when T is near). FIFO order among equal
  // times must still be scheduling order: heap event first.
  ms::EventQueue q;
  const ms::SimTime t_target = ms::EventQueue::kHorizonPs + 100'000;
  std::vector<int> order;
  q.schedule_at(t_target, [&] { order.push_back(0) ; });  // heap (far)
  EXPECT_EQ(q.heap_scheduled(), 1u);
  q.schedule_at(200'000, [&, t_target] {
    q.schedule_at(t_target, [&] { order.push_back(1); });  // wheel (near now)
  });
  q.run();
  EXPECT_EQ(q.wheel_scheduled(), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, HeapEventBetweenOccupiedWheelSlots) {
  // A heap timer that fires BEFORE the next occupied wheel slot: the engine
  // must run it without draining (and skipping past) that slot, because
  // events scheduled afterwards may still target earlier slots.
  ms::EventQueue q;
  std::vector<int> order;
  q.schedule_at(ms::EventQueue::kHorizonPs + 10, [&] {
    order.push_back(0);
    q.schedule_in(100, [&] { order.push_back(1); });  // earlier than the slot below
  });
  q.schedule_at(600'000, [&] {
    // One slot short of the full horizon: lands in the wheel, in a slot
    // that starts AFTER the heap event above fires.
    q.schedule_in(ms::EventQueue::kHorizonPs - ms::EventQueue::kSlotWidth,
                  [&] { order.push_back(2); });
  });
  q.run();
  EXPECT_EQ(q.wheel_scheduled(), 3u);
  EXPECT_EQ(q.heap_scheduled(), 1u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, WheelWrapsAroundManyHorizons) {
  // A self-rescheduling timer stepping by ~0.6 slots for > 3 wheel
  // revolutions: every slot index gets reused, cursor wrap must not lose or
  // reorder events.
  ms::EventQueue q;
  const ms::SimTime step = (ms::EventQueue::kSlotWidth * 3) / 5;
  const int n = static_cast<int>(3 * ms::EventQueue::kNumSlots * 5 / 3);
  int fired = 0;
  std::function<void()> tick = [&] {
    if (++fired < n) q.schedule_in(step, tick);
  };
  q.schedule_at(0, tick);
  q.run();
  EXPECT_EQ(fired, n);
  EXPECT_EQ(q.now(), static_cast<ms::SimTime>(n - 1) * step);
  EXPECT_EQ(q.executed(), static_cast<std::uint64_t>(n));
}

TEST(EventQueue, DeterminismPropertyAgainstReferenceOrder) {
  // Randomized schedule mixing wheel, heap, boundary and same-time events,
  // partly scheduled from inside running events. Execution order must equal
  // the specification: stable sort by time with scheduling order as the
  // tie-break — independently of which structure (wheel slot, ready buffer,
  // heap) each event traverses.
  std::mt19937_64 rng(0xE1E77);
  for (int trial = 0; trial < 20; ++trial) {
    ms::EventQueue q;
    struct Rec {
      ms::SimTime time;
      std::uint64_t seq;
    };
    std::vector<Rec> scheduled;  // in scheduling order
    std::vector<std::uint64_t> executed;
    std::uint64_t next_id = 0;

    auto random_time = [&](ms::SimTime from) -> ms::SimTime {
      switch (rng() % 4) {
        case 0:  // same-time clusters on a coarse grid
          return from + (rng() % 16) * ms::EventQueue::kSlotWidth;
        case 1:  // near future, inside the wheel
          return from + rng() % ms::EventQueue::kHorizonPs;
        case 2:  // around the horizon boundary
          return from + ms::EventQueue::kHorizonPs - 5 + rng() % 10;
        default:  // far future, overflow heap
          return from + ms::EventQueue::kHorizonPs * (1 + rng() % 3) + rng() % 1'000;
      }
    };

    std::function<void(ms::SimTime, int)> add = [&](ms::SimTime t, int children) {
      const std::uint64_t id = next_id++;
      scheduled.push_back({t, id});
      q.schedule_at(t, [&, t, id, children] {
        executed.push_back(id);
        for (int c = 0; c < children; ++c) add(random_time(t), 0);
      });
    };
    for (int i = 0; i < 400; ++i) add(random_time(0), static_cast<int>(rng() % 3));
    q.run();

    ASSERT_EQ(executed.size(), scheduled.size()) << "trial " << trial;
    std::stable_sort(scheduled.begin(), scheduled.end(), [](const Rec& a, const Rec& b) {
      return a.time != b.time ? a.time < b.time : a.seq < b.seq;
    });
    for (std::size_t i = 0; i < scheduled.size(); ++i) {
      ASSERT_EQ(executed[i], scheduled[i].seq) << "trial " << trial << " position " << i;
    }
  }
}

TEST(EventQueue, InlineSchedulingRejectsNothingThatFits) {
  // The hot-path static_assert gate: a 48-byte closure schedules inline.
  ms::EventQueue q;
  struct Big {
    std::uint64_t a[5];
    int* hit;
    void operator()() const { ++*hit; }
  };
  static_assert(ms::InlineFunction::fits_inline<Big>());
  int hits = 0;
  q.schedule_in_inline(10, Big{{1, 2, 3, 4, 5}, &hits});
  q.run();
  EXPECT_EQ(hits, 1);
}

TEST(EventQueue, PublishesEngineTelemetry) {
  moongen::telemetry::MetricRegistry registry;
  ms::EventQueue q;
  q.bind_telemetry(registry, "engine");
  q.schedule_in(100, [&] { q.schedule_in(ms::EventQueue::kHorizonPs * 2, [] {}); });
  q.run();
  const auto snap = registry.snapshot();
  std::uint64_t executed = 0, wheel = 0, heap = 0;
  for (const auto& c : snap.counters) {
    if (c.name == "engine.events_executed") executed = c.value;
    if (c.name == "engine.wheel_scheduled") wheel = c.value;
    if (c.name == "engine.heap_scheduled") heap = c.value;
  }
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(wheel, 1u);
  EXPECT_EQ(heap, 1u);
  bool found_rate = false;
  for (const auto& g : snap.gauges) {
    if (g.name == "engine.events_per_wall_second") found_rate = g.value > 0.0;
  }
  EXPECT_TRUE(found_rate);
}

TEST(SimTime, ByteTimes) {
  EXPECT_EQ(ms::byte_time_ps(10'000), 800u);
  EXPECT_EQ(ms::byte_time_ps(1'000), 8'000u);
  // A 64 B frame + 20 B overhead at 10 GbE: 84 * 0.8 ns = 67.2 ns.
  EXPECT_EQ(84 * ms::byte_time_ps(10'000), 67'200u);
}

// ---------------------------------------------------------------------------
// PTP clocks
// ---------------------------------------------------------------------------

TEST(PtpClock, QuantizesToIncrement) {
  // X540: increments every 6.4 ns.
  ms::PtpClock clock({.increment_ps = 6'400}, /*seed=*/1);
  for (ms::SimTime t = 0; t < 1'000'000; t += 777) {
    EXPECT_EQ(clock.read(t) % 6'400, 0u) << "t=" << t;
  }
}

TEST(PtpClock, MonotonicNonDecreasing) {
  ms::PtpClock clock({.increment_ps = 12'800}, 2);
  std::uint64_t prev = 0;
  for (ms::SimTime t = 0; t < 10'000'000; t += 1'000) {
    const std::uint64_t v = clock.read(t);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(PtpClock, Intel82580ReadingForm) {
  // 82580: t = n * 64 ns + k * 8 ns, k constant per reset (Section 6.1).
  ms::PtpClock clock({.increment_ps = 64'000, .phase_step_ps = 8'000}, 3);
  const std::uint64_t k_off = clock.read(0) % 64'000;
  EXPECT_EQ(k_off % 8'000, 0u);
  for (ms::SimTime t = 0; t < 10'000'000; t += 4'321)
    EXPECT_EQ(clock.read(t) % 64'000, k_off);
}

TEST(PtpClock, ResetChangesPhaseConstant) {
  ms::PtpClock clock({.increment_ps = 64'000, .phase_step_ps = 8'000}, 3);
  std::set<std::uint64_t> offsets;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    clock.reset(seed);
    offsets.insert(clock.read(0) % 64'000);
  }
  EXPECT_GT(offsets.size(), 1u);  // k varies between resets
}

TEST(PtpClock, AdjustShiftsReadings) {
  ms::PtpClock clock({.increment_ps = 6'400}, 4);
  const std::uint64_t before = clock.read(1'000'000);
  clock.adjust(640'000);
  const std::uint64_t after = clock.read(1'000'000);
  EXPECT_EQ(after - before, 640'000u);
}

TEST(PtpClock, DriftAccumulates) {
  // 35 us/s drift (worst case in Section 6.3) = 35'000 ppb.
  ms::PtpClock fast({.increment_ps = 6'400, .drift_ppb = 35'000}, 5);
  ms::PtpClock nominal({.increment_ps = 6'400, .drift_ppb = 0}, 5);
  const ms::SimTime one_second = ms::kPsPerSec;
  const double drift = static_cast<double>(fast.read(one_second)) -
                       static_cast<double>(nominal.read(one_second));
  // Expect ~35 us accumulated difference after one second (+- quantization).
  EXPECT_NEAR(drift, 35e6, 20'000.0);  // 35 us in ps, tolerance 20 ns
}

// ---------------------------------------------------------------------------
// Clock synchronization (Section 6.2)
// ---------------------------------------------------------------------------

TEST(ClockSync, ConvergesWithinOneIncrement) {
  moongen::stats::Mt19937_64 rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    ms::PtpClock a({.increment_ps = 6'400}, rng());
    ms::PtpClock b({.increment_ps = 6'400}, rng());
    b.adjust(static_cast<std::int64_t>(rng() % 1'000'000'000));  // up to 1 ms apart
    const auto result = ms::synchronize_clocks(a, b, /*start=*/0, rng);
    // Paper: error of +-1 cycle -> 6.4 ns per clock.
    EXPECT_LE(std::llabs(result.residual_ps), 2 * 6'400) << "trial " << trial;
  }
}

TEST(ClockSync, RobustAgainstOutliers) {
  moongen::stats::Mt19937_64 rng(7);
  ms::ClockSyncConfig cfg;
  cfg.outlier_probability = 0.2;  // much worse than the observed 5 %
  int failures = 0;
  for (int trial = 0; trial < 100; ++trial) {
    ms::PtpClock a({.increment_ps = 6'400}, rng());
    ms::PtpClock b({.increment_ps = 6'400}, rng());
    b.adjust(5'000'000);
    const auto result = ms::synchronize_clocks(a, b, 0, rng, cfg);
    if (std::llabs(result.residual_ps) > 2 * 6'400) ++failures;
  }
  // With 7 samples and median selection, failures must stay rare even at
  // 20 % outlier rate.
  EXPECT_LE(failures, 5);
}

TEST(ClockSync, MeasurementCancelsConstantAccessTime) {
  moongen::stats::Mt19937_64 rng(9);
  ms::ClockSyncConfig cfg;
  cfg.outlier_probability = 0.0;
  ms::PtpClock a({.increment_ps = 6'400}, 1);
  ms::PtpClock b({.increment_ps = 6'400}, 2);
  b.adjust(123'456'000);
  ms::SimTime cursor = 0;
  const std::int64_t measured = ms::measure_clock_difference(a, b, &cursor, rng, cfg);
  EXPECT_NEAR(static_cast<double>(measured), 123'456'000.0, 2 * 6'400.0);
  EXPECT_EQ(cursor, 4 * ms::ClockSyncConfig::kPcieReadPs);
}

TEST(ClockSync, DriftMeasuredAsRelativeError) {
  // Section 6.3: resynchronizing before each timestamped packet turns a
  // 35 us/s drift into a 0.0035 % relative latency error.
  const double drift_rate = 35e-6;
  EXPECT_NEAR(drift_rate * 100.0, 0.0035, 1e-6);
}
