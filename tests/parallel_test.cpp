// Tests of the parallel simulation runtime: its two loops (one shard on the
// calling thread, several shards on workers that meet at segment ends), and
// the headline determinism contract — independent copies of the paper's
// fig10/fig11 scenario in one testbed run copy for copy identically at any
// shard count for a fixed seed.
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
#include "topologies.hpp"
#include "wire/cable.hpp"

namespace mc = moongen::core;
namespace mn = moongen::nic;
namespace ms = moongen::sim;
namespace mtb = moongen::testbed;
namespace mw = moongen::wire;
namespace topo = moongen::topologies;

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

TEST(ParallelRuntime, WorkerExceptionPropagates) {
  // Several shards run on workers; a shard that throws there surfaces from
  // run_until. The other worker still runs to the segment
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
  // A global due between two segments sees every shard at its time, with
  // every event before it executed: on three shards in the parallel loop,
  // and with the same events on one shard in the one-shard loop.
  for (const std::size_t shards : {3u, 1u}) {
    ms::ParallelRuntime rt(shards);
    for (std::size_t s = 0; s < 3; ++s) rt.shard(s % shards).schedule_at(12'000 + 100 * s, [] {});
    std::vector<ms::SimTime> seen;
    std::uint64_t executed = 0;
    rt.schedule_global(12'345, [&] {
      for (std::size_t s = 0; s < shards; ++s) {
        seen.push_back(rt.shard(s).now());
        executed += rt.shard(s).executed();
      }
      seen.push_back(rt.now());
    });
    rt.run_until(50'000);
    EXPECT_EQ(seen, (std::vector<ms::SimTime>(shards + 1, 12'345))) << shards;
    EXPECT_EQ(executed, 3u) << shards;
    // One window up to the global, one after it.
    EXPECT_EQ(rt.windows_run(), 2u) << shards;
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_EQ(rt.shard(s).now(), 50'000u) << shards;
      EXPECT_EQ(rt.heartbeat(s), 2u) << shards;
    }
  }
}

TEST(ParallelRuntime, SerialAndParallelSegmentsRunTheSameWindows) {
  // The same three event streams under globals every 10 ns, which cut five
  // segments and a tail, run twice: one stream per shard in the parallel
  // loop, and all three on one shard in the one-shard loop. Both run one
  // window per segment, and every global sees every shard at its time with
  // the same events executed.
  struct Seen {
    std::uint64_t windows;
    std::vector<ms::SimTime> clocks;
    std::uint64_t executed;  // summed over the shards
  };
  const auto run = [](std::size_t shards) {
    ms::ParallelRuntime rt(shards);
    for (std::size_t s = 0; s < 3; ++s) {
      for (ms::SimTime t = 250 + 100 * s; t < 55'000; t += 700)
        rt.shard(s % shards).schedule_at(t, [] {});
    }
    std::vector<Seen> seen;
    for (ms::SimTime g = 10'000; g <= 50'000; g += 10'000) {
      rt.schedule_global(g, [&] {
        Seen x{rt.windows_run(), {}, 0};
        for (std::size_t s = 0; s < shards; ++s) {
          x.clocks.push_back(rt.shard(s).now());
          x.executed += rt.shard(s).executed();
        }
        seen.push_back(x);
      });
    }
    rt.run_until(55'000);
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_EQ(rt.shard(s).now(), 55'000u) << shards;
      EXPECT_EQ(rt.heartbeat(s), 6u) << shards;
    }
    EXPECT_EQ(rt.windows_run(), 6u) << shards;
    return seen;
  };
  const std::vector<Seen> parallel = run(3);
  const std::vector<Seen> serial = run(1);
  ASSERT_EQ(parallel.size(), 5u);
  ASSERT_EQ(serial.size(), 5u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].windows, i + 1) << "global " << i;
    EXPECT_EQ(serial[i].windows, i + 1) << "global " << i;
    EXPECT_EQ(parallel[i].clocks, std::vector<ms::SimTime>(3, 10'000 * (i + 1))) << "global " << i;
    EXPECT_EQ(serial[i].clocks, std::vector<ms::SimTime>(1, 10'000 * (i + 1))) << "global " << i;
    EXPECT_GT(parallel[i].executed, 0u) << "global " << i;
    EXPECT_EQ(serial[i].executed, parallel[i].executed) << "global " << i;
  }
}

TEST(ParallelRuntime, SerialLoopExceptionPropagates) {
  // One shard runs on the calling thread; a shard that throws there
  // surfaces from run_until like one that throws on a worker thread.
  ms::ParallelRuntime rt(1);
  rt.schedule_global(10'000, [] {});
  std::thread::id thrower;
  rt.shard(0).schedule_at(15'500, [&thrower] {
    thrower = std::this_thread::get_id();
    throw std::runtime_error("serial boom");
  });
  EXPECT_EQ(message_of(rt, 20'000), "serial boom");
  EXPECT_EQ(thrower, std::this_thread::get_id());  // it ran on the calling thread
  // The segment up to the global completed; the shard threw in the next.
  EXPECT_EQ(rt.heartbeat(0), 1u);
  EXPECT_EQ(rt.windows_run(), 1u);
  EXPECT_EQ(rt.now(), 10'000u);
  EXPECT_FALSE(rt.running());
}

// ---------------------------------------------------------------------------
// Sequential/parallel equivalence on the paper's scenarios
// ---------------------------------------------------------------------------

namespace {

/// What one copy of the fig10 testbed measured.
struct RunResult {
  std::uint64_t gen_tx_packets = 0;
  std::uint64_t gen_tx_bytes = 0;
  std::uint64_t sink_rx_packets = 0;
  std::uint64_t sink_rx_bytes = 0;
  std::uint64_t dut_crc_errors = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t interrupts = 0;
  std::uint64_t ts_samples = 0;
  /// Loss, corruption and flaps on the generator's link.
  std::uint64_t link_faults = 0;
  std::vector<std::uint64_t> latency_bins;
  /// Sink RX count seen by each global tick.
  std::vector<std::uint64_t> ticks;
  double latency_min = 0;
  double latency_max = 0;

  bool operator==(const RunResult&) const = default;
};

/// A run of several fig10 copies: per-copy physics, plus the runtime
/// layout (shards, each copy's shard, windows), which may differ across
/// shard counts.
struct Fig10Run {
  std::vector<RunResult> copies;
  std::vector<std::size_t> shard_of;
  std::size_t shards = 0;
  std::uint64_t windows = 0;
  std::uint64_t fault_fires = 0;
};

// `copies` independent copies of the fig10/fig11 testbed (l2_load_latency)
// in one testbed, run for `run_ps` of virtual time at a given shard count.
// Copy k has devices 4k..4k+3 (gen_tx, dut_in, dut_out, sink; names after
// the first copy end in k), seeds of its own, and its own timestamper; its
// Poisson pattern draws from seed 77 + k. Each copy is one component, so
// round-robin puts copy k on shard k % shards. A non-zero `tick_ps` adds a
// global every tick that reads every sink's RX count.
Fig10Run run_fig10(int shards, int copies, bool poisson, const std::string& faults,
                   ms::SimTime run_ps = 50 * ms::kPsPerMs, ms::SimTime tick_ps = 0) {
  mtb::Scenario s;
  s.seed(1).shards(shards).faults(faults).telemetry(false);
  for (int k = 0; k < copies; ++k) {
    const std::uint64_t seed = 10 * static_cast<std::uint64_t>(k);
    topo::forwarder_path(s, {.first_id = 4 * k,
                             .suffix = k == 0 ? "" : std::to_string(k),
                             .device_seeds = {seed + 1, seed + 2, seed + 3, seed + 4},
                             .link_seeds = {seed + 5, seed + 6}});
  }
  auto tb = s.build();

  mc::UdpTemplateOptions bg;
  bg.frame_size = 96;
  bg.ptp_payload = true;
  bg.ptp_message_type = 5;
  mc::UdpTemplateOptions stamped = bg;
  stamped.ptp_message_type = 0;
  mc::TimestamperConfig cfg;
  cfg.sample_interval_ps = 100 * ms::kPsPerUs;
  cfg.hist_bin_ps = 50'000;
  std::vector<std::unique_ptr<mc::SimLoadGen>> gens;
  std::vector<std::unique_ptr<mc::Timestamper>> stampers;
  for (int k = 0; k < copies; ++k) {
    const int d = 4 * k;
    auto& queue = tb->port(d).tx_queue(0);
    if (poisson) {
      gens.push_back(mc::SimLoadGen::crc_paced(
          queue, mc::make_udp_frame(bg),
          std::make_unique<mc::PoissonPattern>(2.0, 77 + static_cast<std::uint64_t>(k)), 10'000));
    } else {
      queue.set_rate_mpps(2.0, 100);
      gens.push_back(mc::SimLoadGen::hardware_paced(queue, mc::make_udp_frame(bg)));
    }
    stampers.push_back(std::make_unique<mc::Timestamper>(tb->engine(d), tb->port(d), *gens.back(),
                                                         mc::make_udp_frame(stamped),
                                                         tb->port(d + 3), cfg));
    stampers.back()->start();
  }
  Fig10Run r;
  r.copies.resize(static_cast<std::size_t>(copies));
  for (ms::SimTime t = tick_ps; tick_ps > 0 && t <= run_ps; t += tick_ps) {
    tb->schedule_global(t, [&] {
      for (int k = 0; k < copies; ++k)
        r.copies[static_cast<std::size_t>(k)].ticks.push_back(
            tb->port(4 * k + 3).stats().rx_packets);
    });
  }
  tb->run_until(run_ps);

  for (int k = 0; k < copies; ++k) {
    const int d = 4 * k;
    mc::Timestamper& ts = *stampers[static_cast<std::size_t>(k)];
    ts.stop();
    RunResult& c = r.copies[static_cast<std::size_t>(k)];
    c.gen_tx_packets = tb->port(d).stats().tx_packets;
    c.gen_tx_bytes = tb->port(d).stats().tx_bytes;
    c.sink_rx_packets = tb->port(d + 3).stats().rx_packets;
    c.sink_rx_bytes = tb->port(d + 3).stats().rx_bytes;
    c.dut_crc_errors = tb->port(d + 1).stats().crc_errors;
    c.forwarded = tb->forwarder(static_cast<std::size_t>(k)).forwarded();
    c.interrupts = tb->forwarder(static_cast<std::size_t>(k)).interrupts();
    c.ts_samples = ts.samples();
    const auto& link = tb->link(d, d + 1);
    c.link_faults = link.fault_drops() + link.corrupted() + link.flaps();
    const auto& h = ts.histogram();
    for (std::size_t i = 0; i < h.bucket_count(); ++i) c.latency_bins.push_back(h.bucket(i));
    c.latency_min = ts.latency_ns().min();
    c.latency_max = ts.latency_ns().max();
    r.shard_of.push_back(tb->shard_of(d));
  }
  r.shards = tb->shard_count();
  r.windows = tb->runtime().windows_run();
  r.fault_fires = tb->fault_fires();
  return r;
}

/// Requires that `run` used more than one shard and that every copy in it
/// measured exactly what the same copy measured on one shard.
void expect_same_copies(const Fig10Run& seq, const Fig10Run& run) {
  EXPECT_GT(run.shards, 1u);
  ASSERT_EQ(run.copies.size(), seq.copies.size());
  for (std::size_t k = 0; k < seq.copies.size(); ++k)
    EXPECT_TRUE(run.copies[k] == seq.copies[k]) << "copy " << k << " on " << run.shards << " shards";
  EXPECT_EQ(run.fault_fires, seq.fault_fires);
}

}  // namespace

TEST(ParallelEquivalence, Fig10CbrIdenticalAcrossShardCounts) {
  // Three copies: --shards 2 runs copies 0 and 2 on one engine and copy 1
  // on the other; --shards 4 gives each copy its own shard.
  const Fig10Run seq = run_fig10(1, 3, false, "");
  EXPECT_EQ(seq.shards, 1u);
  for (const RunResult& c : seq.copies) EXPECT_GT(c.ts_samples, 10u);  // each copy measured
  const Fig10Run two = run_fig10(2, 3, false, "");
  EXPECT_EQ(two.shards, 2u);
  EXPECT_EQ(two.shard_of, (std::vector<std::size_t>{0, 1, 0}));
  expect_same_copies(seq, two);
  const Fig10Run four = run_fig10(4, 3, false, "");
  EXPECT_EQ(four.shards, 3u);  // capped at the three components
  EXPECT_EQ(four.shard_of, (std::vector<std::size_t>{0, 1, 2}));
  expect_same_copies(seq, four);
}

TEST(ParallelEquivalence, Fig11PoissonIdenticalAcrossShardCounts) {
  const Fig10Run seq = run_fig10(1, 2, true, "");
  for (const int shards : {2, 4}) {
    SCOPED_TRACE(shards);
    expect_same_copies(seq, run_fig10(shards, 2, true, ""));
  }
}

TEST(ParallelEquivalence, FaultedRunIdenticalAcrossShardCounts) {
  // wire.l1 is copy 0's generator link; dut.fwd prefixes every copy's
  // forwarder site (dut.fwd, dut.fwd2).
  const std::string spec =
      "seed=42;loss@wire.l1:p=0.002;corrupt@wire.l1:p=0.001;"
      "flap@wire.l1:p=1e-4,param=2e8;stall@dut.fwd:p=0.01,param=2e7";
  const Fig10Run seq = run_fig10(1, 2, false, spec);
  EXPECT_GT(seq.fault_fires, 0u);
  EXPECT_GT(seq.copies[0].link_faults, 0u);
  for (const int shards : {2, 4}) {
    SCOPED_TRACE(shards);
    expect_same_copies(seq, run_fig10(shards, 2, false, spec));
  }
}

TEST(ParallelEquivalence, TickedRunMatchesAcrossRuntimeLoops) {
  // A 1 ms global tick over 10 ms cuts ten segments. One shard runs them on
  // the calling thread, two shards on workers; both run one window per
  // segment. Results, and what every tick saw, are the same.
  const ms::SimTime run = 10 * ms::kPsPerMs;
  const Fig10Run seq = run_fig10(1, 2, false, "", run, ms::kPsPerMs);
  for (const RunResult& c : seq.copies) {
    EXPECT_EQ(c.ticks.size(), 10u);
    EXPECT_GT(c.sink_rx_packets, 0u);
  }
  EXPECT_EQ(seq.windows, 10u);
  for (const int shards : {2, 4}) {
    SCOPED_TRACE(shards);
    const Fig10Run par = run_fig10(shards, 2, false, "", run, ms::kPsPerMs);
    EXPECT_EQ(par.shards, 2u);
    expect_same_copies(seq, par);
    EXPECT_EQ(par.windows, 10u);
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

/// Two duplex pairs (0-1 and 2-3), each end sending to the other as
/// exchange_frames does: each pair is one component.
struct PairsRun {
  std::array<RxDigest, 4> rx;
  std::size_t shards = 0;
  bool on_worker = false;  // an event of the run ran off the calling thread
};

PairsRun run_pairs(int shards) {
  mtb::Scenario s;
  s.seed(3).shards(shards).telemetry(false);
  for (int d = 0; d < 4; ++d) s.device(d, mn::intel_x540()).name("d" + std::to_string(d));
  auto tb = s.link(0, 1).duplex().link(2, 3).duplex().build();
  PairsRun r;
  r.shards = tb->shard_count();
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

/// Three beds in one testbed, each its own component: two 82599s on a
/// duplex 2 m OM3 fiber at 10 GbE (devices 0-1; ~322 ns, less than one max
/// frame) and two X540s on a duplex GbE copper cable at 1 GbE (devices
/// 2-3; a max frame serializes for 12.3 us, far longer than the cable's
/// latency), each end sending as exchange_frames does; and 9000 B
/// hardware-paced frames from device 4 to device 5 over a default cable.
struct CablesRun {
  std::array<RxDigest, 4> duplex;  // devices 0-3
  std::uint64_t jumbo_rx = 0;
  std::size_t shards = 0;
};

CablesRun run_cables(int shards) {
  mtb::Scenario s;
  s.seed(3).shards(shards).telemetry(false)
      .device(0, mn::intel_82599()).name("fiber_a")
      .device(1, mn::intel_82599()).name("fiber_b")
      .device(2, mn::intel_x540()).name("gbe_a").link_mbit(1'000)
      .device(3, mn::intel_x540()).name("gbe_b").link_mbit(1'000)
      .device(4, mn::intel_x540()).name("jumbo_tx")
      .device(5, mn::intel_x540()).name("jumbo_rx")
      .link(0, 1).cable(mw::fiber_om3(2.0)).duplex()
      .link(2, 3).cable(mw::cat5e_gbe(2.0)).duplex()
      .link(4, 5);
  auto tb = s.build();
  CablesRun r;
  r.shards = tb->shard_count();
  std::vector<std::unique_ptr<mc::SimLoadGen>> gens;
  for (int d = 0; d < 4; ++d) {
    gens.push_back(exchange_frames(tb->port(d), d < 2 ? 10'000 : 1'000,
                                   r.duplex[static_cast<std::size_t>(d)]));
  }
  mc::UdpTemplateOptions jumbo;
  jumbo.frame_size = 8'996;  // buffer without FCS: a 9000 B frame
  auto& queue = tb->port(4).tx_queue(0);
  queue.set_rate_wire_mbit(5'000.0);
  gens.push_back(mc::SimLoadGen::hardware_paced(queue, mc::make_udp_frame(jumbo)));
  tick_every_100us(*tb, 2 * ms::kPsPerMs);
  tb->run_until(2 * ms::kPsPerMs);
  r.jumbo_rx = tb->port(5).stats().rx_packets;
  return r;
}

}  // namespace

TEST(ParallelEquivalence, UnpinnedPairsRunOnWorkersIdenticalToOneShard) {
  // The loop --shards N takes on the examples: components, each on its
  // own worker, meeting at the 100 us ticks.
  const PairsRun one = run_pairs(1);
  EXPECT_EQ(one.shards, 1u);
  EXPECT_FALSE(one.on_worker);
  for (const RxDigest& d : one.rx) EXPECT_GT(d.packets, 1'000u);
  for (const int shards : {2, 4}) {
    const PairsRun run = run_pairs(shards);
    EXPECT_EQ(run.shards, 2u) << shards;  // one shard per pair
    EXPECT_TRUE(run.on_worker) << shards;
    EXPECT_TRUE(run.rx == one.rx) << shards;
  }
}

TEST(ParallelEquivalence, CableVariantsIdenticalAcrossShardCounts) {
  // Fiber, GbE copper and jumbo frames as three components: --shards 2 runs
  // the fiber and jumbo beds on one engine.
  const CablesRun one = run_cables(1);
  EXPECT_EQ(one.shards, 1u);
  for (std::size_t d = 0; d < 4; ++d) EXPECT_GT(one.duplex[d].packets, d < 2 ? 1'000u : 100u);
  EXPECT_GT(one.jumbo_rx, 100u);
  for (const int shards : {2, 4}) {
    const CablesRun run = run_cables(shards);
    EXPECT_EQ(run.shards, shards == 2 ? 2u : 3u) << shards;
    EXPECT_TRUE(run.duplex == one.duplex) << shards;
    EXPECT_EQ(run.jumbo_rx, one.jumbo_rx) << shards;
  }
}

TEST(ParallelLookahead, CoupledZeroLatencyLinkIsFine) {
  mtb::Scenario s;
  s.seed(1)
      .shards(2)
      .device(0, mn::intel_x540()).name("a")
      .device(1, mn::intel_x540()).name("b")
      .link(0, 1).latency_ns(0)
      .couple(0, 1);  // one component: the link runs on one engine
  auto tb = s.build();
  EXPECT_EQ(tb->shard_count(), 1u);
}
