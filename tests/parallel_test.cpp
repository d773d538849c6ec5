// Tests of the parallel simulation runtime: its two loops (window-major on
// one thread for channel topologies, one worker per shard without
// channels), the conservative-window protocol, and the headline determinism
// contract — a sharded run of the paper's fig10/fig11 scenarios is
// indistinguishable from the sequential engine for a fixed seed.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
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
#include "telemetry/registry.hpp"
#include "testbed/scenario.hpp"
#include "wire/cable.hpp"

namespace mc = moongen::core;
namespace mn = moongen::nic;
namespace ms = moongen::sim;
namespace mt = moongen::telemetry;
namespace mtb = moongen::testbed;
namespace mw = moongen::wire;

namespace {

std::string message_of(ms::ParallelRuntime& rt, ms::SimTime t) {
  try {
    rt.run_until(t);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "no exception";
}

}  // namespace

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
  EXPECT_THROW(rt.add_channel(0, 0, 1'000, [] {}), std::invalid_argument);
  EXPECT_THROW(rt.add_channel(0, 1, 0, [] {}), std::invalid_argument);
  EXPECT_THROW(rt.add_channel(0, 7, 1'000, [] {}), std::out_of_range);
}

TEST(ParallelRuntime, WindowIsMinChannelLookahead) {
  ms::ParallelRuntime rt(2);
  EXPECT_EQ(rt.window_ps(), UINT64_MAX);
  rt.add_channel(0, 1, 5'000, [] {});
  rt.add_channel(1, 0, 3'000, [] {});
  EXPECT_EQ(rt.window_ps(), 3'000u);
}

TEST(ParallelRuntime, WorkerExceptionPropagates) {
  // Shards without channels run on workers; a shard that throws there
  // surfaces from run_until. The other worker still runs to the segment
  // end, and the global due there does not run.
  ms::ParallelRuntime rt(2);
  std::thread::id thrower;
  rt.shard(0).schedule_at(500, [&thrower] {
    thrower = std::this_thread::get_id();
    throw std::runtime_error("worker boom");
  });
  bool global_ran = false;
  rt.schedule_global(5'000, [&global_ran] { global_ran = true; });
  EXPECT_EQ(message_of(rt, 10'000), "worker boom");
  EXPECT_NE(thrower, std::thread::id{});
  EXPECT_NE(thrower, std::this_thread::get_id());  // it ran on a worker
  EXPECT_FALSE(global_ran);
  EXPECT_EQ(rt.heartbeat(0), 0u);
  EXPECT_EQ(rt.heartbeat(1), 1u);
  EXPECT_EQ(rt.windows_run(), 0u);  // the failed segment is not counted
  EXPECT_FALSE(rt.running());
}

TEST(ParallelEpochs, MidRunGlobalSeesEveryShardAtItsTime) {
  ms::ParallelRuntime rt(3);
  rt.add_channel(0, 1, 1'000, [] {});
  rt.add_channel(1, 2, 1'000, [] {});
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

TEST(ParallelRuntime, SerialAndParallelSegmentsRunTheSameWindows) {
  // The same events on three shards under globals every 10 ns, which cut
  // five segments and a tail, run twice: joined by channels (0 and 1 feed
  // each other, 1 feeds 2), in the window-major loop with 1 ns windows;
  // and without channels, on workers, one window per segment. Every global
  // sees every shard at its time with the same events executed. The
  // window-major loop delivers every channel before each window.
  struct Seen {
    std::uint64_t windows;
    std::array<ms::SimTime, 3> clocks;
    std::array<std::uint64_t, 3> executed;
    std::array<std::uint64_t, 3> delivered;
  };
  constexpr std::size_t kChannels = 3;
  const auto run = [](bool channels) {
    ms::ParallelRuntime rt(3);
    std::array<std::uint64_t, kChannels> delivered{};
    const std::array<std::pair<std::size_t, std::size_t>, kChannels> ends = {
        std::pair{0, 1}, std::pair{1, 0}, std::pair{1, 2}};
    for (std::size_t c = 0; channels && c < kChannels; ++c)
      rt.add_channel(ends[c].first, ends[c].second, 1'000, [&delivered, c] { ++delivered[c]; });
    for (std::size_t s = 0; s < 3; ++s) {
      for (ms::SimTime t = 250 + 100 * s; t < 55'000; t += 700) rt.shard(s).schedule_at(t, [] {});
    }
    std::vector<Seen> seen;
    for (ms::SimTime g = 10'000; g <= 50'000; g += 10'000) {
      rt.schedule_global(g, [&] {
        Seen x{rt.windows_run(), {}, {}, delivered};
        for (std::size_t s = 0; s < 3; ++s) {
          x.clocks[s] = rt.shard(s).now();
          x.executed[s] = rt.shard(s).executed();
        }
        seen.push_back(x);
      });
    }
    rt.run_until(55'000);
    for (std::size_t s = 0; s < 3; ++s) {
      EXPECT_EQ(rt.shard(s).now(), 55'000u);
      EXPECT_EQ(rt.heartbeat(s), channels ? 55u : 6u);
    }
    EXPECT_EQ(rt.windows_run(), channels ? 55u : 6u);
    for (const std::uint64_t d : delivered) EXPECT_EQ(d, channels ? 55u : 0u);
    return seen;
  };
  const std::vector<Seen> serial = run(true);
  const std::vector<Seen> parallel = run(false);
  ASSERT_EQ(serial.size(), 5u);
  ASSERT_EQ(parallel.size(), 5u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const std::uint64_t windows = 10 * (i + 1);
    EXPECT_EQ(serial[i].windows, windows) << "global " << i;
    EXPECT_EQ(parallel[i].windows, i + 1) << "global " << i;
    for (std::size_t s = 0; s < 3; ++s) {
      EXPECT_EQ(serial[i].clocks[s], 10'000 * (i + 1)) << "global " << i << " shard " << s;
      EXPECT_EQ(parallel[i].clocks[s], 10'000 * (i + 1)) << "global " << i << " shard " << s;
      EXPECT_EQ(serial[i].executed[s], parallel[i].executed[s]) << "global " << i << " shard " << s;
    }
    for (std::size_t c = 0; c < kChannels; ++c)
      EXPECT_EQ(serial[i].delivered[c], windows) << "global " << i << " channel " << c;
  }
}

TEST(ParallelRuntime, SerialLoopExceptionPropagates) {
  // Shards joined by channels run window-major on the calling thread; a
  // shard that throws there surfaces from run_until like one that throws
  // on a worker thread.
  ms::ParallelRuntime rt(2);
  rt.add_channel(0, 1, 1'000, [] {});
  rt.add_channel(1, 0, 1'000, [] {});
  rt.schedule_global(10'000, [] {});
  std::thread::id thrower;
  rt.shard(1).schedule_at(15'500, [&thrower] {
    thrower = std::this_thread::get_id();
    throw std::runtime_error("serial boom");
  });
  EXPECT_EQ(message_of(rt, 20'000), "serial boom");
  EXPECT_EQ(thrower, std::this_thread::get_id());  // it ran on the calling thread
  // Window 15 ran shard 0 to its end, then shard 1 threw in it.
  EXPECT_EQ(rt.heartbeat(0), 16u);
  EXPECT_EQ(rt.heartbeat(1), 15u);
  EXPECT_EQ(rt.windows_run(), 15u);
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

// The fig10/fig11 testbed (l2_load_latency) at a given shard count, run for
// `run_ps` of virtual time; a non-zero `tick_ps` adds a global every tick
// that reads the sink's RX count. Above one shard, gen_tx and dut_in are
// pinned apart, so {gen_tx, sink} and the DuT pair run on two shards and
// both links cross them.
RunResult run_fig10(int shards, bool poisson, const std::string& faults,
                    ms::SimTime run_ps = 50 * ms::kPsPerMs, ms::SimTime tick_ps = 0) {
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
  tb->run_until(run_ps);
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

TEST(ParallelEquivalence, TickedRunMatchesAcrossRuntimeLoops) {
  // A 1 ms global tick over 10 ms cuts ten segments. One shard runs one
  // window per segment; two shards joined by the cut links run 2.125 us
  // windows. Results, and what every tick saw, are the same.
  const ms::SimTime run = 10 * ms::kPsPerMs;
  const RunResult seq = run_fig10(1, false, "", run, ms::kPsPerMs);
  const RunResult two = run_fig10(2, false, "", run, ms::kPsPerMs);
  ASSERT_EQ(two.shards, 2u);
  EXPECT_EQ(seq.ticks.size(), 10u);
  EXPECT_GT(seq.sink_rx_packets, 0u);
  EXPECT_TRUE(seq == two);
  EXPECT_EQ(seq.windows, 10u);
  EXPECT_EQ(two.windows, 10 * 471u);
}

// ---------------------------------------------------------------------------
// Lookahead properties
// ---------------------------------------------------------------------------

TEST(ParallelLookahead, CrossShardArrivalsNeverLandInThePast) {
  // deliver_remote throws std::logic_error on any lookahead violation; a
  // clean long faulted run is the property test that the conservative
  // window bound (the cable's minimum latency) is sufficient.
  EXPECT_NO_THROW(run_fig10(2, true, "loss@wire.l1:p=0.001"));
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

/// What one device received: counts plus an FNV-1a fold of every frame's
/// completion time and size.
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

/// Makes `port` send paced frames of random size (up to 1518 B) at 70% of
/// `mbit`, and folds what it receives into `digest`.
std::unique_ptr<mc::SimLoadGen> exchange_frames(mn::Port& port, std::uint64_t mbit,
                                                RxDigest& digest) {
  port.rx_queue(0).set_store(false);
  port.rx_queue(0).set_callback([&digest](const mn::RxQueueModel::Entry& e) {
    ++digest.packets;
    digest.bytes += e.frame.frame_size();
    digest.add(e.complete_ps);
    digest.add(e.frame.frame_size());
  });
  auto& queue = port.tx_queue(0);
  queue.set_rate_wire_mbit(static_cast<double>(mbit) * 0.7);
  std::vector<mn::Frame> templates;
  for (const std::size_t size : {60, 400, 1'000, 1'514}) {
    mc::UdpTemplateOptions opts;
    opts.frame_size = size;
    templates.push_back(mc::make_udp_frame(opts));
  }
  auto gen = mc::SimLoadGen::hardware_paced(queue, templates.front());
  gen->set_templates(std::move(templates));
  return gen;
}

/// Adds a global every 100 us up to `end_ps`.
void tick_every_100us(mtb::Testbed& tb, ms::SimTime end_ps) {
  for (ms::SimTime t = 100 * ms::kPsPerUs; t <= end_ps; t += 100 * ms::kPsPerUs)
    tb.schedule_global(t, [] {});
}

// Two devices on a duplex `cable` at `mbit`, each sending to the other
// under a 100 us global tick. Above one shard the devices are pinned apart,
// so the cable crosses shards.
std::pair<RxDigest, RxDigest> run_duplex(int shards, mn::ChipSpec chip, std::uint64_t mbit,
                                         const mw::CableSpec& cable, std::size_t* shard_count) {
  mtb::Scenario s;
  s.seed(3).shards(shards).telemetry(false).device(0, chip).name("a").link_mbit(mbit);
  if (shards > 1) s.pin_shard(0);
  s.device(1, chip).name("b").link_mbit(mbit);
  if (shards > 1) s.pin_shard(1);
  auto tb = s.link(0, 1).cable(cable).duplex().build();
  *shard_count = tb->shard_count();
  std::pair<RxDigest, RxDigest> out;
  const auto gen_a = exchange_frames(tb->port("a"), mbit, out.first);
  const auto gen_b = exchange_frames(tb->port("b"), mbit, out.second);
  tick_every_100us(*tb, 2 * ms::kPsPerMs);
  tb->run_until(2 * ms::kPsPerMs);
  return out;
}

/// Two duplex pairs (0-1 and 2-3) as run_duplex sends on them, with
/// nothing pinned: each pair is one component.
struct PairsRun {
  std::array<RxDigest, 4> rx;
  std::size_t shards = 0;
  std::size_t channels = 0;
  bool on_worker = false;  // an event of the run ran off the calling thread
};

PairsRun run_pairs(int shards) {
  mtb::Scenario s;
  s.seed(3).shards(shards).telemetry(false);
  for (int d = 0; d < 4; ++d) s.device(d, mn::intel_x540()).name("d" + std::to_string(d));
  auto tb = s.link(0, 1).duplex().link(2, 3).duplex().build();
  PairsRun r;
  r.shards = tb->shard_count();
  r.channels = tb->runtime().channel_count();
  std::vector<std::unique_ptr<mc::SimLoadGen>> gens;
  for (int d = 0; d < 4; ++d)
    gens.push_back(exchange_frames(tb->port(d), 10'000, r.rx[static_cast<std::size_t>(d)]));
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> on_worker{false};
  for (const int d : {0, 2}) {
    tb->engine(d).schedule_at(ms::kPsPerUs, [&on_worker, caller] {
      if (std::this_thread::get_id() != caller) on_worker.store(true);
    });
  }
  tick_every_100us(*tb, 2 * ms::kPsPerMs);
  tb->run_until(2 * ms::kPsPerMs);
  r.on_worker = on_worker.load();
  return r;
}

}  // namespace

TEST(ParallelEquivalence, UnpinnedPairsRunOnWorkersIdenticalToOneShard) {
  // The loop --shards N takes on the examples: components without
  // channels, each on its own worker, meeting at the 100 us ticks.
  const PairsRun one = run_pairs(1);
  EXPECT_EQ(one.shards, 1u);
  EXPECT_FALSE(one.on_worker);
  for (const RxDigest& d : one.rx) EXPECT_GT(d.packets, 1'000u);
  for (const int shards : {2, 4}) {
    const PairsRun run = run_pairs(shards);
    EXPECT_EQ(run.shards, 2u) << shards;  // one shard per pair
    EXPECT_EQ(run.channels, 0u) << shards;
    EXPECT_TRUE(run.on_worker) << shards;
    EXPECT_TRUE(run.rx == one.rx) << shards;
  }
}

TEST(ParallelLookahead, FiberLinkCrossesShards) {
  // 2 m of OM3 fiber between 82599s is ~322 ns, less than one max frame at
  // 10 GbE: usable only because frames reach the link at serialization
  // start.
  const auto cable = mw::fiber_om3(2.0);
  std::size_t one = 0, two = 0;
  const auto seq = run_duplex(1, mn::intel_82599(), 10'000, cable, &one);
  const auto two_shards = run_duplex(2, mn::intel_82599(), 10'000, cable, &two);
  ASSERT_EQ(two, 2u);
  EXPECT_GT(seq.first.packets, 1'000u);
  EXPECT_GT(seq.second.packets, 1'000u);
  EXPECT_TRUE(seq == two_shards);
}

TEST(ParallelLookahead, GbeCopperLinkCrossesShards) {
  // A 1 GbE max frame takes 12.3 us to serialize, far more than the cable's
  // latency; the link still crosses shards with its latency as lookahead.
  const auto cable = mw::cat5e_gbe(2.0);
  std::size_t one = 0, two = 0;
  const auto seq = run_duplex(1, mn::intel_x540(), 1'000, cable, &one);
  const auto two_shards = run_duplex(2, mn::intel_x540(), 1'000, cable, &two);
  ASSERT_EQ(two, 2u);
  EXPECT_GT(seq.first.packets, 100u);
  EXPECT_GT(seq.second.packets, 100u);
  EXPECT_TRUE(seq == two_shards);
}

namespace {

// A 9000 B hardware-paced frame over a default cable between two devices,
// pinned apart above one shard; returns the frames the far end received.
std::uint64_t run_jumbo(int shards) {
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
  tb->run_until(ms::kPsPerMs);
  return tb->port("b").stats().rx_packets;
}

}  // namespace

TEST(ParallelLookahead, JumboFrameCrossesShards) {
  // A frame's length no longer matters to the lookahead: the link sees it
  // at serialization start, a full cable latency before it arrives.
  const std::uint64_t one = run_jumbo(1);
  EXPECT_GT(one, 50u);
  EXPECT_EQ(run_jumbo(2), one);
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
