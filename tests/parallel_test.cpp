// Tests of the parallel simulation runtime: the SPSC frame channel, the
// conservative-window protocol, and the headline determinism contract —
// a sharded run of the paper's fig10/fig11 scenarios is indistinguishable
// from the sequential engine for a fixed seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/rate_control.hpp"
#include "core/timestamper.hpp"
#include "nic/chip.hpp"
#include "sim/parallel.hpp"
#include "sim/spsc_channel.hpp"
#include "telemetry/registry.hpp"
#include "testbed/scenario.hpp"
#include "wire/cable.hpp"

namespace mc = moongen::core;
namespace mn = moongen::nic;
namespace ms = moongen::sim;
namespace mt = moongen::telemetry;
namespace mtb = moongen::testbed;
namespace mw = moongen::wire;

namespace moongen::sim {

/// run_until runs shards joined by channels in the serial loop; this runs
/// them in the parallel one, one worker per shard.
class ParallelRuntimeTestPeer {
 public:
  static void run_parallel(ParallelRuntime& rt, SimTime t) { rt.advance(t, true); }
};

}  // namespace moongen::sim

namespace {

using Peer = moongen::sim::ParallelRuntimeTestPeer;

/// Advances `rt` to `t` in the parallel loop, or as run_until chooses.
void advance(moongen::sim::ParallelRuntime& rt, moongen::sim::SimTime t, bool parallel) {
  if (parallel) {
    Peer::run_parallel(rt, t);
  } else {
    rt.run_until(t);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// SpscChannel
// ---------------------------------------------------------------------------

TEST(SpscChannel, FifoOrderSingleThread) {
  ms::SpscChannel<int> ch;
  for (int i = 0; i < 100; ++i) ch.push(i);
  int v = -1;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(ch.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(ch.try_pop(v));
}

TEST(SpscChannel, SurvivesChunkBoundaries) {
  // Chunk size is 256: push far past several boundaries, interleaved with
  // partial drains, and verify nothing is lost or reordered.
  ms::SpscChannel<std::uint64_t> ch;
  std::uint64_t next_push = 0, next_pop = 0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 100; ++i) ch.push(next_push++);
    std::uint64_t v;
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(ch.try_pop(v));
      EXPECT_EQ(v, next_pop++);
    }
  }
  EXPECT_EQ(ch.pushed(), next_push);
  EXPECT_EQ(ch.popped(), next_pop);
}

TEST(SpscChannel, TwoThreadStress) {
  constexpr std::uint64_t kItems = 1'000'000;
  ms::SpscChannel<std::uint64_t> ch;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) ch.push(i);
  });
  std::uint64_t expected = 0;
  std::uint64_t v;
  while (expected < kItems) {
    if (ch.try_pop(v)) {
      ASSERT_EQ(v, expected);  // FIFO, nothing lost, nothing duplicated
      ++expected;
    }
  }
  producer.join();
  EXPECT_FALSE(ch.try_pop(v));
}

// ---------------------------------------------------------------------------
// ParallelRuntime plumbing
// ---------------------------------------------------------------------------

TEST(ParallelRuntime, GlobalEventsRunInTimeThenFifoOrder) {
  ms::ParallelRuntime rt(2);
  std::vector<int> order;
  rt.schedule_global(2'000, [&] { order.push_back(3); });
  rt.schedule_global(1'000, [&] { order.push_back(1); });
  rt.schedule_global(1'000, [&] { order.push_back(2); });  // same time: FIFO
  rt.run_until(10'000);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(rt.now(), 10'000u);
}

TEST(ParallelRuntime, RejectsRunIntoPast) {
  ms::ParallelRuntime rt(1);
  rt.run_until(5'000);
  EXPECT_THROW(rt.run_until(1'000), std::logic_error);
}

TEST(ParallelRuntime, RejectsBadChannels) {
  ms::ParallelRuntime rt(2);
  EXPECT_THROW(rt.add_channel(0, 0, 1'000, [] {}, [] {}), std::invalid_argument);
  EXPECT_THROW(rt.add_channel(0, 1, 0, [] {}, [] {}), std::invalid_argument);
  EXPECT_THROW(rt.add_channel(0, 7, 1'000, [] {}, [] {}), std::out_of_range);
}

TEST(ParallelRuntime, WindowIsMinChannelLookahead) {
  ms::ParallelRuntime rt(2);
  EXPECT_EQ(rt.window_ps(), UINT64_MAX);
  rt.add_channel(0, 1, 5'000, [] {}, [] {});
  rt.add_channel(1, 0, 3'000, [] {}, [] {});
  EXPECT_EQ(rt.window_ps(), 3'000u);
}

TEST(ParallelRuntime, WorkerExceptionPropagates) {
  ms::ParallelRuntime rt(2);
  rt.add_channel(0, 1, 1'000, [] { throw std::runtime_error("drain boom"); }, [] {});
  rt.shard(0).schedule_at(500, [] {});
  EXPECT_THROW(Peer::run_parallel(rt, 10'000), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Per-channel epoch protocol: lead bound, failure release, segment ends
// ---------------------------------------------------------------------------

namespace {

using namespace std::chrono_literals;
constexpr std::uint64_t kLead = ms::ParallelRuntime::kMaxLeadWindows;

/// Sleeps until `flushed` reaches `target` (the producer is then held by
/// the lead bound) or 10 s pass, then a little longer so a producer that
/// ignored the bound would show it.
void wait_for_flushes(const std::atomic<std::uint64_t>& flushed, std::uint64_t target) {
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (flushed.load() < target && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  std::this_thread::sleep_for(20ms);
}

std::string message_of(ms::ParallelRuntime& rt, ms::SimTime t, bool parallel) {
  try {
    advance(rt, t, parallel);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "no exception";
}

}  // namespace

TEST(ParallelEpochs, SlowConsumerHoldsProducerAtLeadBound) {
  // The serial loop holds a producer at the same bound: its turn ends there.
  for (const bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel loop" : "serial loop");
    ms::ParallelRuntime rt(2);
    std::atomic<std::uint64_t> flushed{0};
    std::atomic<std::uint64_t> drained{0};
    std::uint64_t max_lead = 0;  // producer thread only
    rt.add_channel(
        0, 1, 1'000,
        [&] {
          if (drained.load() == 0) wait_for_flushes(flushed, kLead);
          drained.fetch_add(1);
        },
        [&] {
          const std::uint64_t f = flushed.fetch_add(1) + 1;
          max_lead = std::max(max_lead, f - drained.load());
        });
    // One segment of 3 x kLead windows: no global or hook resets the lead.
    advance(rt, 3 * kLead * 1'000, parallel);
    EXPECT_EQ(max_lead, kLead);
    EXPECT_EQ(flushed.load(), 3 * kLead);
    EXPECT_EQ(drained.load(), 3 * kLead - 1);  // the last epoch waits for the next run
    EXPECT_EQ(rt.windows_run(), 3 * kLead);
  }
}

TEST(ParallelEpochs, ProducerFailureReleasesWaitingConsumer) {
  ms::ParallelRuntime rt(2);
  rt.add_channel(0, 1, 1'000, [] {}, [] {});
  rt.shard(0).schedule_at(500, [] {
    std::this_thread::sleep_for(50ms);  // the consumer now waits on epoch 0
    throw std::runtime_error("producer boom");
  });
  EXPECT_EQ(message_of(rt, 1'000'000, true), "producer boom");
  EXPECT_EQ(rt.heartbeat(0), 0u);  // the producer never closed window 0
  EXPECT_EQ(rt.heartbeat(1), 1u);  // the consumer ran window 0, then waited
}

TEST(ParallelEpochs, ConsumerFailureReleasesHeldProducer) {
  ms::ParallelRuntime rt(2);
  std::atomic<std::uint64_t> flushed{0};
  rt.add_channel(
      0, 1, 1'000,
      [&] {
        wait_for_flushes(flushed, kLead);
        throw std::runtime_error("consumer boom");
      },
      [&] { flushed.fetch_add(1); });
  EXPECT_EQ(message_of(rt, 3 * kLead * 1'000, true), "consumer boom");
  EXPECT_EQ(flushed.load(), kLead);
  EXPECT_EQ(rt.heartbeat(0), kLead);
}

TEST(ParallelEpochs, MidRunGlobalSeesEveryShardAtItsTime) {
  for (const bool parallel : {false, true}) {
    ms::ParallelRuntime rt(3);
    rt.add_channel(0, 1, 1'000, [] {}, [] {});
    rt.add_channel(1, 2, 1'000, [] {}, [] {});
    for (std::size_t s = 0; s < 3; ++s) rt.shard(s).schedule_at(12'000 + 100 * s, [] {});
    std::vector<ms::SimTime> seen;
    rt.schedule_global(12'345, [&] {
      for (std::size_t s = 0; s < 3; ++s) seen.push_back(rt.shard(s).now());
      seen.push_back(rt.now());
    });
    advance(rt, 50'000, parallel);
    EXPECT_EQ(seen, (std::vector<ms::SimTime>(4, 12'345))) << "parallel " << parallel;
    // 13 windows up to the global (the last one 345 ps long), 38 after it.
    EXPECT_EQ(rt.windows_run(), 51u);
    EXPECT_EQ(rt.serial_windows(), parallel ? 0u : 51u);
    for (std::size_t s = 0; s < 3; ++s) EXPECT_EQ(rt.shard(s).now(), 50'000u);
  }
}

TEST(ParallelEpochs, LeadBoundHoldsAcrossSegments) {
  // Globals cut three segments of 1.5 x kLead windows each. In every
  // segment the consumer stalls on its first drain until the producer is
  // held by the lead bound; the producer's view of the consumer crosses
  // each rendezvous, where the last epoch stays queued.
  for (const bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel loop" : "serial loop");
    ms::ParallelRuntime rt(2);
    constexpr std::uint64_t kSegment = kLead + kLead / 2;
    std::atomic<std::uint64_t> flushed{0};
    std::atomic<std::uint64_t> drained{0};
    // The consumer's first drain in each segment: epoch 0, then the epoch
    // left queued at each rendezvous.
    const std::array<std::uint64_t, 3> stall_at = {0, kSegment - 1, 2 * kSegment - 1};
    std::size_t stalls = 0;      // consumer thread only
    std::uint64_t max_lead = 0;  // producer thread only
    rt.add_channel(
        0, 1, 1'000,
        [&] {
          if (stalls < stall_at.size() && drained.load() == stall_at[stalls]) {
            wait_for_flushes(flushed, stall_at[stalls] + kLead);
            ++stalls;
          }
          drained.fetch_add(1);
        },
        [&] {
          const std::uint64_t f = flushed.fetch_add(1) + 1;
          max_lead = std::max(max_lead, f - drained.load());
        });
    std::vector<std::pair<std::uint64_t, std::uint64_t>> at_globals;  // (flushed, drained)
    for (std::uint64_t g = 1; g <= 2; ++g) {
      rt.schedule_global(g * kSegment * 1'000,
                         [&] { at_globals.emplace_back(flushed.load(), drained.load()); });
    }
    advance(rt, 3 * kSegment * 1'000, parallel);
    EXPECT_EQ(stalls, 3u);
    EXPECT_EQ(max_lead, kLead);
    ASSERT_EQ(at_globals.size(), 2u);
    for (std::uint64_t g = 1; g <= 2; ++g) {
      EXPECT_EQ(at_globals[g - 1].first, g * kSegment) << "global " << g;
      EXPECT_EQ(at_globals[g - 1].second, g * kSegment - 1) << "global " << g;
    }
    EXPECT_EQ(flushed.load(), 3 * kSegment);
    EXPECT_EQ(drained.load(), 3 * kSegment - 1);
    EXPECT_EQ(rt.windows_run(), 3 * kSegment);
    EXPECT_EQ(rt.serial_windows(), parallel ? 0u : 3 * kSegment);
  }
}

TEST(ParallelRuntime, SerialAndParallelSegmentsRunTheSameWindows) {
  // Shards 0 and 1 feed each other, 1 feeds 2; globals every ten 1 ns
  // windows cut five segments and a tail. run_until runs them serially,
  // the peer in parallel. Either way every global sees all shards at its
  // time, every epoch but the last flushed and drained, and ten more
  // windows.
  for (const bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel loop" : "serial loop");
    ms::ParallelRuntime rt(3);
    constexpr std::size_t kChannels = 3;
    std::array<std::atomic<std::uint64_t>, kChannels> drained{};
    std::array<std::atomic<std::uint64_t>, kChannels> flushed{};
    const std::array<std::pair<std::size_t, std::size_t>, kChannels> ends = {
        std::pair{0, 1}, std::pair{1, 0}, std::pair{1, 2}};
    for (std::size_t c = 0; c < kChannels; ++c) {
      rt.add_channel(ends[c].first, ends[c].second, 1'000,
                     [&drained, c] { drained[c].fetch_add(1); },
                     [&flushed, c] { flushed[c].fetch_add(1); });
    }
    for (std::size_t s = 0; s < 3; ++s) {
      for (ms::SimTime t = 250 + 100 * s; t < 55'000; t += 700) rt.shard(s).schedule_at(t, [] {});
    }
    struct Seen {
      std::uint64_t windows;
      std::array<ms::SimTime, 3> clocks;
      std::array<std::uint64_t, kChannels> drained, flushed;
    };
    std::vector<Seen> seen;
    for (ms::SimTime g = 10'000; g <= 50'000; g += 10'000) {
      rt.schedule_global(g, [&] {
        Seen x{rt.windows_run(), {}, {}, {}};
        for (std::size_t s = 0; s < 3; ++s) x.clocks[s] = rt.shard(s).now();
        for (std::size_t c = 0; c < kChannels; ++c) {
          x.drained[c] = drained[c].load();
          x.flushed[c] = flushed[c].load();
        }
        seen.push_back(x);
      });
    }
    advance(rt, 55'000, parallel);
    ASSERT_EQ(seen.size(), 5u);
    for (std::size_t i = 0; i < seen.size(); ++i) {
      const std::uint64_t windows = 10 * (i + 1);
      EXPECT_EQ(seen[i].windows, windows) << "global " << i;
      for (std::size_t s = 0; s < 3; ++s)
        EXPECT_EQ(seen[i].clocks[s], 10'000 * (i + 1)) << "global " << i << " shard " << s;
      for (std::size_t c = 0; c < kChannels; ++c) {
        EXPECT_EQ(seen[i].flushed[c], windows) << "global " << i << " channel " << c;
        EXPECT_EQ(seen[i].drained[c], windows - 1) << "global " << i << " channel " << c;
      }
    }
    EXPECT_EQ(rt.windows_run(), 55u);
    EXPECT_EQ(rt.serial_windows(), parallel ? 0u : 55u);
    for (std::size_t s = 0; s < 3; ++s) {
      EXPECT_EQ(rt.shard(s).now(), 55'000u);
      EXPECT_EQ(rt.heartbeat(s), 55u);
    }
  }
}

TEST(ParallelRuntime, SerialLoopExceptionPropagates) {
  // Shards joined by channels run serially; a shard that throws there
  // surfaces from run_until like one that throws on a worker thread.
  ms::ParallelRuntime rt(2);
  rt.add_channel(0, 1, 1'000, [] {}, [] {});
  rt.add_channel(1, 0, 1'000, [] {}, [] {});
  rt.schedule_global(10'000, [] {});
  std::thread::id thrower;
  rt.shard(1).schedule_at(15'500, [&thrower] {
    thrower = std::this_thread::get_id();
    throw std::runtime_error("serial boom");
  });
  EXPECT_EQ(message_of(rt, 20'000, false), "serial boom");
  EXPECT_EQ(thrower, std::this_thread::get_id());  // it ran in the serial loop
  // Around the cycle each shard stays within a window of the other: shard 0
  // ran through window 14 and waits for shard 1's epoch 14.
  EXPECT_EQ(rt.heartbeat(0), 15u);
  EXPECT_EQ(rt.heartbeat(1), 15u);
  EXPECT_EQ(rt.serial_windows(), 10u);  // the failed segment is not counted
  EXPECT_FALSE(rt.running());
}

// ---------------------------------------------------------------------------
// Sequential/parallel equivalence on the paper's scenarios
// ---------------------------------------------------------------------------

namespace {

struct RunResult {
  std::uint64_t gen_tx_packets = 0;
  std::uint64_t gen_tx_bytes = 0;
  std::uint64_t sink_rx_packets = 0;
  std::uint64_t sink_rx_bytes = 0;
  std::uint64_t dut_crc_errors = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t interrupts = 0;
  std::uint64_t ts_samples = 0;
  std::uint64_t fault_fires = 0;
  std::uint64_t cross_shard = 0;
  std::size_t shards = 0;
  std::uint64_t windows = 0;
  std::uint64_t serial_windows = 0;
  std::vector<std::uint64_t> latency_bins;
  /// Sink RX count seen by each global tick.
  std::vector<std::uint64_t> ticks;
  double latency_min = 0;
  double latency_max = 0;

  bool operator==(const RunResult& o) const {
    // cross_shard/shards/windows intentionally excluded: they describe the
    // runtime layout, not the simulated physics.
    return gen_tx_packets == o.gen_tx_packets && gen_tx_bytes == o.gen_tx_bytes &&
           sink_rx_packets == o.sink_rx_packets && sink_rx_bytes == o.sink_rx_bytes &&
           dut_crc_errors == o.dut_crc_errors && forwarded == o.forwarded &&
           interrupts == o.interrupts && ts_samples == o.ts_samples &&
           fault_fires == o.fault_fires && latency_bins == o.latency_bins &&
           latency_min == o.latency_min && latency_max == o.latency_max && ticks == o.ticks;
  }
};

/// Runs `tb` to `t` in the parallel loop, or as run_until chooses.
void advance(mtb::Testbed& tb, ms::SimTime t, bool parallel) {
  if (parallel) {
    tb.validate_fault_rules();
    Peer::run_parallel(tb.runtime(), t);
  } else {
    tb.run_until(t);
  }
}

// The fig10/fig11 testbed (l2_load_latency) at a given shard count, run for
// `run_ps` of virtual time, in the parallel loop if `parallel`; a non-zero
// `tick_ps` adds a global every tick that reads the sink's RX count. Above
// one shard, gen_tx and dut_in are pinned apart, so {gen_tx, sink} and the
// DuT pair run on two shards and both links cross them.
RunResult run_fig10(int shards, bool poisson, const std::string& faults,
                    ms::SimTime run_ps = 50 * ms::kPsPerMs, ms::SimTime tick_ps = 0,
                    bool parallel = false) {
  const bool split = shards > 1;
  mtb::Scenario s;
  s.seed(1).shards(shards).faults(faults).telemetry(false)
      .device(0, mn::intel_x540()).name("gen_tx").with_seed(1);
  if (split) s.pin_shard(0);
  s.device(1, mn::intel_x540()).name("dut_in").with_seed(2);
  if (split) s.pin_shard(1);
  auto tb = s.device(2, mn::intel_x540()).name("dut_out").with_seed(3)
                .device(3, mn::intel_x540()).name("sink").with_seed(4).rx_store(false)
                .link(0, 1).with_seed(5)
                .link(2, 3).with_seed(6)
                .forwarder(1, 2)
                .couple(0, 3)
                .build();

  mc::UdpTemplateOptions bg;
  bg.frame_size = 96;
  bg.ptp_payload = true;
  bg.ptp_message_type = 5;
  auto& queue = tb->port("gen_tx").tx_queue(0);
  std::unique_ptr<mc::SimLoadGen> gen;
  if (poisson) {
    gen = mc::SimLoadGen::crc_paced(queue, mc::make_udp_frame(bg),
                                    std::make_unique<mc::PoissonPattern>(2.0, 77), 10'000);
  } else {
    queue.set_rate_mpps(2.0, 100);
    gen = mc::SimLoadGen::hardware_paced(queue, mc::make_udp_frame(bg));
  }

  mc::UdpTemplateOptions stamped = bg;
  stamped.ptp_message_type = 0;
  mc::TimestamperConfig cfg;
  cfg.sample_interval_ps = 100 * ms::kPsPerUs;
  cfg.hist_bin_ps = 50'000;
  mc::Timestamper ts(tb->engine(0), tb->port("gen_tx"), *gen, mc::make_udp_frame(stamped),
                     tb->port("sink"), cfg);
  ts.start();
  RunResult r;
  for (ms::SimTime t = tick_ps; tick_ps > 0 && t <= run_ps; t += tick_ps)
    tb->schedule_global(t, [&] { r.ticks.push_back(tb->port("sink").stats().rx_packets); });
  advance(*tb, run_ps, parallel);
  ts.stop();

  r.gen_tx_packets = tb->port("gen_tx").stats().tx_packets;
  r.gen_tx_bytes = tb->port("gen_tx").stats().tx_bytes;
  r.sink_rx_packets = tb->port("sink").stats().rx_packets;
  r.sink_rx_bytes = tb->port("sink").stats().rx_bytes;
  r.dut_crc_errors = tb->port("dut_in").stats().crc_errors;
  r.forwarded = tb->forwarder().forwarded();
  r.interrupts = tb->forwarder().interrupts();
  r.ts_samples = ts.samples();
  r.fault_fires = tb->fault_fires();
  r.cross_shard = tb->cross_shard_frames();
  r.shards = tb->shard_count();
  r.windows = tb->runtime().windows_run();
  r.serial_windows = tb->runtime().serial_windows();
  const auto& h = ts.histogram();
  for (std::size_t i = 0; i < h.bucket_count(); ++i) r.latency_bins.push_back(h.bucket(i));
  r.latency_min = ts.latency_ns().min();
  r.latency_max = ts.latency_ns().max();
  return r;
}

}  // namespace

TEST(ParallelEquivalence, Fig10CbrIdenticalAcrossShardCounts) {
  const RunResult seq = run_fig10(1, false, "");
  const RunResult two = run_fig10(2, false, "");
  const RunResult four = run_fig10(4, false, "");
  EXPECT_EQ(seq.shards, 1u);
  EXPECT_EQ(two.shards, 2u);
  EXPECT_EQ(four.shards, 2u);  // capped at the two pinned components
  EXPECT_GT(two.cross_shard, 0u);
  EXPECT_GT(seq.ts_samples, 10u);  // the run measured something
  EXPECT_TRUE(seq == two);
  EXPECT_TRUE(seq == four);
}

TEST(ParallelEquivalence, Fig11PoissonIdenticalAcrossShardCounts) {
  const RunResult seq = run_fig10(1, true, "");
  const RunResult two = run_fig10(2, true, "");
  const RunResult par = run_fig10(2, true, "", 50 * ms::kPsPerMs, 0, true);
  EXPECT_GT(two.cross_shard, 0u);
  EXPECT_TRUE(seq == two);
  EXPECT_TRUE(seq == par);
}

TEST(ParallelEquivalence, FaultedRunIdenticalAcrossShardCounts) {
  const std::string spec =
      "seed=42;loss@wire.l1:p=0.002;corrupt@wire.l1:p=0.001;"
      "flap@wire.l1:p=1e-4,param=2e8;stall@dut.fwd:p=0.01,param=2e7";
  const RunResult seq = run_fig10(1, false, spec);
  const RunResult two = run_fig10(2, false, spec);
  const RunResult par = run_fig10(2, false, spec, 50 * ms::kPsPerMs, 0, true);
  EXPECT_GT(seq.fault_fires, 0u);
  EXPECT_TRUE(seq == two);
  EXPECT_TRUE(seq == par);
}

TEST(ParallelEquivalence, TickedRunMatchesAcrossRuntimeLoops) {
  // A 1 ms global tick over 10 ms cuts ten segments. At 2 shards run_until
  // runs them serially and the peer in parallel; results, and what every
  // tick saw, equal the one-shard run.
  const ms::SimTime run = 10 * ms::kPsPerMs;
  const RunResult seq = run_fig10(1, false, "", run, ms::kPsPerMs);
  const RunResult serial = run_fig10(2, false, "", run, ms::kPsPerMs);
  const RunResult parallel = run_fig10(2, false, "", run, ms::kPsPerMs, true);
  ASSERT_EQ(serial.shards, 2u);
  EXPECT_EQ(seq.ticks.size(), 10u);
  EXPECT_GT(seq.sink_rx_packets, 0u);
  EXPECT_TRUE(seq == serial);
  EXPECT_TRUE(seq == parallel);
  EXPECT_EQ(serial.windows, parallel.windows);
  EXPECT_EQ(serial.serial_windows, serial.windows);
  EXPECT_EQ(parallel.serial_windows, 0u);
  EXPECT_EQ(seq.serial_windows, seq.windows);  // one shard is always serial
}

TEST(ParallelEquivalence, ParallelRunIsRepeatable) {
  // Two parallel runs must agree with each other bit for bit, regardless
  // of thread scheduling.
  const RunResult a = run_fig10(2, false, "", 50 * ms::kPsPerMs, 0, true);
  const RunResult b = run_fig10(2, false, "", 50 * ms::kPsPerMs, 0, true);
  EXPECT_EQ(a.serial_windows, 0u);
  EXPECT_TRUE(a == b);
}

// ---------------------------------------------------------------------------
// Lookahead / epoch protocol properties
// ---------------------------------------------------------------------------

TEST(ParallelLookahead, CrossShardArrivalsNeverLandInThePast) {
  // drain_remote_epoch throws std::logic_error on any lookahead violation;
  // a clean long faulted run is the property test that the conservative
  // window bound (the cable's minimum latency) is sufficient.
  for (const bool parallel : {false, true})
    EXPECT_NO_THROW(run_fig10(2, true, "loss@wire.l1:p=0.001", 50 * ms::kPsPerMs, 0, parallel));
}

TEST(ParallelLookahead, ZeroLatencyCrossShardLinkIsRejected) {
  mtb::Scenario s;
  s.seed(1)
      .shards(2)
      .device(0, mn::intel_x540()).name("a").pin_shard(0)
      .device(1, mn::intel_x540()).name("b").pin_shard(1)
      .link(0, 1).latency_ns(0);  // no latency: no usable lookahead
  try {
    (void)s.build();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("zero minimum cable latency"), std::string::npos) << what;
    EXPECT_NE(what.find("pin_shard()"), std::string::npos) << what;
  }
}

namespace {

/// What one side of a cross-shard duplex link received: counts plus an
/// FNV-1a fold of every frame's completion time and size.
struct RxDigest {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t hash = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ull;
    }
  }
  bool operator==(const RxDigest&) const = default;
};

// Two devices on a duplex `cable` at `mbit`, each sending paced frames of
// random size (up to 1518 B) to the other, under a 100 us global tick; in
// the parallel loop if `parallel`. Above one shard the devices are pinned
// apart, so the cable crosses shards.
std::pair<RxDigest, RxDigest> run_duplex(int shards, mn::ChipSpec chip, std::uint64_t mbit,
                                         const mw::CableSpec& cable, std::size_t* shard_count,
                                         bool parallel = false) {
  mtb::Scenario s;
  s.seed(3).shards(shards).telemetry(false).device(0, chip).name("a").link_mbit(mbit);
  if (shards > 1) s.pin_shard(0);
  s.device(1, chip).name("b").link_mbit(mbit);
  if (shards > 1) s.pin_shard(1);
  auto tb = s.link(0, 1).cable(cable).duplex().build();
  *shard_count = tb->shard_count();
  std::pair<RxDigest, RxDigest> out;
  std::vector<std::unique_ptr<mc::SimLoadGen>> gens;
  for (const char* name : {"a", "b"}) {
    RxDigest& d = std::string(name) == "a" ? out.first : out.second;
    auto& port = tb->port(name);
    port.rx_queue(0).set_store(false);
    port.rx_queue(0).set_callback([&d](const mn::RxQueueModel::Entry& e) {
      ++d.packets;
      d.bytes += e.frame.frame_size();
      d.add(e.complete_ps);
      d.add(e.frame.frame_size());
    });
    auto& queue = port.tx_queue(0);
    queue.set_rate_wire_mbit(static_cast<double>(mbit) * 0.7);
    std::vector<mn::Frame> templates;
    for (const std::size_t size : {60, 400, 1'000, 1'514}) {
      mc::UdpTemplateOptions opts;
      opts.frame_size = size;
      templates.push_back(mc::make_udp_frame(opts));
    }
    gens.push_back(mc::SimLoadGen::hardware_paced(queue, templates.front()));
    gens.back()->set_templates(std::move(templates));
  }
  for (ms::SimTime t = 100 * ms::kPsPerUs; t <= 2 * ms::kPsPerMs; t += 100 * ms::kPsPerUs)
    tb->schedule_global(t, [] {});
  advance(*tb, 2 * ms::kPsPerMs, parallel);
  return out;
}

}  // namespace

TEST(ParallelLookahead, FiberLinkCrossesShards) {
  // 2 m of OM3 fiber between 82599s is ~322 ns, less than one max frame at
  // 10 GbE: usable only because frames reach the link at serialization
  // start.
  const auto cable = mw::fiber_om3(2.0);
  std::size_t one = 0, two = 0;
  const auto seq = run_duplex(1, mn::intel_82599(), 10'000, cable, &one);
  const auto serial = run_duplex(2, mn::intel_82599(), 10'000, cable, &two);
  const auto par = run_duplex(2, mn::intel_82599(), 10'000, cable, &two, true);
  ASSERT_EQ(two, 2u);
  EXPECT_GT(seq.first.packets, 1'000u);
  EXPECT_GT(seq.second.packets, 1'000u);
  EXPECT_TRUE(seq == serial);
  EXPECT_TRUE(seq == par);
}

TEST(ParallelLookahead, GbeCopperLinkCrossesShards) {
  // A 1 GbE max frame takes 12.3 us to serialize, far more than the cable's
  // latency; the link still crosses shards with its latency as lookahead.
  const auto cable = mw::cat5e_gbe(2.0);
  std::size_t one = 0, two = 0;
  const auto seq = run_duplex(1, mn::intel_x540(), 1'000, cable, &one);
  const auto serial = run_duplex(2, mn::intel_x540(), 1'000, cable, &two);
  const auto par = run_duplex(2, mn::intel_x540(), 1'000, cable, &two, true);
  ASSERT_EQ(two, 2u);
  EXPECT_GT(seq.first.packets, 100u);
  EXPECT_GT(seq.second.packets, 100u);
  EXPECT_TRUE(seq == serial);
  EXPECT_TRUE(seq == par);
}

namespace {

// A 9000 B hardware-paced frame over a default cable between two devices,
// pinned apart above one shard; returns the frames the far end received.
std::uint64_t run_jumbo(int shards, bool parallel = false) {
  mtb::Scenario s;
  s.seed(1).shards(shards).telemetry(false).device(0, mn::intel_x540()).name("a");
  if (shards > 1) s.pin_shard(0);
  s.device(1, mn::intel_x540()).name("b");
  if (shards > 1) s.pin_shard(1);
  auto tb = s.link(0, 1).build();
  mc::UdpTemplateOptions jumbo;
  jumbo.frame_size = 8'996;  // buffer without FCS: a 9000 B frame
  auto& queue = tb->port("a").tx_queue(0);
  queue.set_rate_wire_mbit(5'000.0);
  auto gen = mc::SimLoadGen::hardware_paced(queue, mc::make_udp_frame(jumbo));
  advance(*tb, ms::kPsPerMs, parallel);
  return tb->port("b").stats().rx_packets;
}

}  // namespace

TEST(ParallelLookahead, JumboFrameCrossesShards) {
  // A frame's length no longer matters to the lookahead: the link sees it
  // at serialization start, a full cable latency before it arrives.
  const std::uint64_t one = run_jumbo(1);
  EXPECT_GT(one, 50u);
  EXPECT_EQ(run_jumbo(2), one);
  EXPECT_EQ(run_jumbo(2, true), one);
}

TEST(ParallelLookahead, CoupledZeroLatencyLinkIsFine) {
  mtb::Scenario s;
  s.seed(1)
      .shards(2)
      .device(0, mn::intel_x540()).name("a")
      .device(1, mn::intel_x540()).name("b")
      .link(0, 1).latency_ns(0)
      .couple(0, 1);  // same shard: no channel, no lookahead requirement
  auto tb = s.build();
  EXPECT_EQ(tb->shard_count(), 1u);
}
