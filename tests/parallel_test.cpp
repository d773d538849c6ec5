// Tests of the parallel simulation runtime: the SPSC frame channel, the
// conservative-window protocol, and the headline determinism contract —
// a sharded run of the paper's fig10/fig11 scenarios is indistinguishable
// from the sequential engine for a fixed seed.
#include <gtest/gtest.h>

#include <algorithm>
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

namespace mc = moongen::core;
namespace mn = moongen::nic;
namespace ms = moongen::sim;
namespace mt = moongen::telemetry;
namespace mtb = moongen::testbed;

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
  EXPECT_THROW(rt.run_until(10'000), std::runtime_error);
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

std::string message_of(ms::ParallelRuntime& rt, ms::SimTime t) {
  try {
    rt.run_until(t);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "no exception";
}

}  // namespace

TEST(ParallelEpochs, SlowConsumerHoldsProducerAtLeadBound) {
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
  rt.run_until(3 * kLead * 1'000);
  EXPECT_EQ(max_lead, kLead);
  EXPECT_EQ(flushed.load(), 3 * kLead);
  EXPECT_EQ(drained.load(), 3 * kLead - 1);  // the last epoch waits for the next run
  EXPECT_EQ(rt.windows_run(), 3 * kLead);
}

TEST(ParallelEpochs, ProducerFailureReleasesWaitingConsumer) {
  ms::ParallelRuntime rt(2);
  rt.add_channel(0, 1, 1'000, [] {}, [] {});
  rt.shard(0).schedule_at(500, [] {
    std::this_thread::sleep_for(50ms);  // the consumer now waits on epoch 0
    throw std::runtime_error("producer boom");
  });
  EXPECT_EQ(message_of(rt, 1'000'000), "producer boom");
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
  EXPECT_EQ(message_of(rt, 3 * kLead * 1'000), "consumer boom");
  EXPECT_EQ(flushed.load(), kLead);
  EXPECT_EQ(rt.heartbeat(0), kLead);
}

TEST(ParallelEpochs, MidRunGlobalSeesEveryShardAtItsTime) {
  ms::ParallelRuntime rt(3);
  rt.add_channel(0, 1, 1'000, [] {}, [] {});
  rt.add_channel(1, 2, 1'000, [] {}, [] {});
  for (std::size_t s = 0; s < 3; ++s) rt.shard(s).schedule_at(12'000 + 100 * s, [] {});
  std::vector<ms::SimTime> seen;
  rt.schedule_global(12'345, [&] {
    for (std::size_t s = 0; s < 3; ++s) seen.push_back(rt.shard(s).now());
    seen.push_back(rt.now());
  });
  rt.run_until(50'000);
  EXPECT_EQ(seen, (std::vector<ms::SimTime>(4, 12'345)));
  // 13 windows up to the global (the last one 345 ps long), 38 after it.
  EXPECT_EQ(rt.windows_run(), 51u);
  for (std::size_t s = 0; s < 3; ++s) EXPECT_EQ(rt.shard(s).now(), 50'000u);
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
  std::vector<std::uint64_t> latency_bins;
  double latency_min = 0;
  double latency_max = 0;

  bool operator==(const RunResult& o) const {
    // cross_shard/shards intentionally excluded: they describe the runtime
    // layout, not the simulated physics.
    return gen_tx_packets == o.gen_tx_packets && gen_tx_bytes == o.gen_tx_bytes &&
           sink_rx_packets == o.sink_rx_packets && sink_rx_bytes == o.sink_rx_bytes &&
           dut_crc_errors == o.dut_crc_errors && forwarded == o.forwarded &&
           interrupts == o.interrupts && ts_samples == o.ts_samples &&
           fault_fires == o.fault_fires && latency_bins == o.latency_bins &&
           latency_min == o.latency_min && latency_max == o.latency_max;
  }
};

// The fig10/fig11 testbed (l2_load_latency) at a given shard count.
RunResult run_fig10(int shards, bool poisson, const std::string& faults) {
  auto tb = mtb::Scenario()
                .seed(1)
                .shards(shards)
                .faults(faults)
                .telemetry(false)
                .device(0, mn::intel_x540()).name("gen_tx").with_seed(1)
                .device(1, mn::intel_x540()).name("dut_in").with_seed(2)
                .device(2, mn::intel_x540()).name("dut_out").with_seed(3)
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
  tb->run_until(static_cast<ms::SimTime>(50 * ms::kPsPerMs));  // 50 ms virtual
  ts.stop();

  RunResult r;
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
  EXPECT_EQ(four.shards, 2u);  // capped at the two coupling groups
  EXPECT_GT(two.cross_shard, 0u);
  EXPECT_GT(seq.ts_samples, 10u);  // the run measured something
  EXPECT_TRUE(seq == two);
  EXPECT_TRUE(seq == four);
}

TEST(ParallelEquivalence, Fig11PoissonIdenticalAcrossShardCounts) {
  const RunResult seq = run_fig10(1, true, "");
  const RunResult two = run_fig10(2, true, "");
  EXPECT_GT(two.cross_shard, 0u);
  EXPECT_TRUE(seq == two);
}

TEST(ParallelEquivalence, FaultedRunIdenticalAcrossShardCounts) {
  const std::string spec =
      "seed=42;loss@wire.l1:p=0.002;corrupt@wire.l1:p=0.001;"
      "flap@wire.l1:p=1e-4,param=2e8;stall@dut.fwd:p=0.01,param=2e7";
  const RunResult seq = run_fig10(1, false, spec);
  const RunResult two = run_fig10(2, false, spec);
  EXPECT_GT(seq.fault_fires, 0u);
  EXPECT_TRUE(seq == two);
}

TEST(ParallelEquivalence, ParallelRunIsRepeatable) {
  // Two parallel runs must agree with each other bit for bit, regardless
  // of thread scheduling.
  const RunResult a = run_fig10(2, false, "");
  const RunResult b = run_fig10(2, false, "");
  EXPECT_TRUE(a == b);
}

// ---------------------------------------------------------------------------
// Lookahead / epoch protocol properties
// ---------------------------------------------------------------------------

TEST(ParallelLookahead, CrossShardArrivalsNeverLandInThePast) {
  // drain_remote_epoch throws std::logic_error on any lookahead violation;
  // a clean long faulted run is the property test that the conservative
  // window bound (cable latency minus one max frame time) is sufficient.
  EXPECT_NO_THROW(run_fig10(2, true, "loss@wire.l1:p=0.001"));
}

TEST(ParallelLookahead, ZeroLatencyCrossShardLinkIsRejected) {
  mtb::Scenario s;
  s.seed(1)
      .shards(2)
      .device(0, mn::intel_x540()).name("a")
      .device(1, mn::intel_x540()).name("b")
      .link(0, 1).latency_ns(0);  // below one frame time: no usable lookahead
  EXPECT_THROW((void)s.build(), std::invalid_argument);
}

namespace {

// A 9000 B hardware-paced frame over a default cable between two devices.
void run_jumbo(int shards) {
  auto tb = mtb::Scenario()
                .seed(1)
                .shards(shards)
                .telemetry(false)
                .device(0, mn::intel_x540()).name("a")
                .device(1, mn::intel_x540()).name("b")
                .link(0, 1)
                .build();
  mc::UdpTemplateOptions jumbo;
  jumbo.frame_size = 8'996;  // buffer without FCS: a 9000 B frame
  auto& queue = tb->port("a").tx_queue(0);
  queue.set_rate_mpps(0.1, 100);
  auto gen = mc::SimLoadGen::hardware_paced(queue, mc::make_udp_frame(jumbo));
  tb->run_until(static_cast<ms::SimTime>(ms::kPsPerMs));
}

}  // namespace

TEST(ParallelLookahead, OverlongFrameOnCrossShardLinkFailsFast) {
  // One shard: no channel, no lookahead, the jumbo frame is just slow.
  EXPECT_NO_THROW(run_jumbo(1));
  // Two shards: the link's lookahead assumes at most 1538 wire bytes, so
  // the first jumbo frame is refused with a message, not a mid-run
  // lookahead violation.
  try {
    run_jumbo(2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("0 -> 1"), std::string::npos) << what;
    EXPECT_NE(what.find("9000 B"), std::string::npos) << what;
    EXPECT_NE(what.find("1538"), std::string::npos) << what;
    EXPECT_NE(what.find("couple()"), std::string::npos) << what;
  }
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
