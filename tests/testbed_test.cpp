// Tests of the Testbed/Scenario API: declaration validation, shard
// partitioning, component lookup, telemetry naming, the per-testbed
// DeviceTable and the per-testbed RunState (replacing the process-global
// run flag).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/device.hpp"
#include "core/rate_control.hpp"
#include "core/task.hpp"
#include "membuf/buf_array.hpp"
#include "membuf/mempool.hpp"
#include "nic/chip.hpp"
#include "rpc/latency_recorder.hpp"
#include "rpc/open_loop.hpp"
#include "rpc/server_model.hpp"
#include "telemetry/registry.hpp"
#include "testbed/scenario.hpp"

namespace mb = moongen::membuf;
namespace mc = moongen::core;
namespace mn = moongen::nic;
namespace mr = moongen::rpc;
namespace ms = moongen::sim;
namespace mt = moongen::telemetry;
namespace mtb = moongen::testbed;

namespace {

// The standard 4-device fig10 topology used throughout, `copies` times
// over. Its links join its two coupling groups, {gen_tx, sink} and the DuT
// pair, into one component, so each copy is one component. Copy k has
// devices 4k..4k+3; names after the first copy end in k.
mtb::Scenario fig10_scenario(int shards, int copies = 1) {
  mtb::Scenario s;
  s.seed(1).shards(shards).telemetry(true);
  for (int k = 0; k < copies; ++k) {
    const int d = 4 * k;
    const std::string suffix = k == 0 ? "" : std::to_string(k);
    s.device(d, mn::intel_x540()).name("gen_tx" + suffix)
        .device(d + 1, mn::intel_x540()).name("dut_in" + suffix)
        .device(d + 2, mn::intel_x540()).name("dut_out" + suffix)
        .device(d + 3, mn::intel_x540()).name("sink" + suffix)
        .link(d, d + 1)
        .link(d + 2, d + 3)
        .forwarder(d + 1, d + 2)
        .couple(d, d + 3);
  }
  return s;
}

bool has_counter(const mt::Snapshot& snap, const std::string& name) {
  return std::any_of(snap.counters.begin(), snap.counters.end(),
                     [&](const auto& c) { return c.name == name; });
}

}  // namespace

// ---------------------------------------------------------------------------
// Scenario validation
// ---------------------------------------------------------------------------

TEST(Scenario, RejectsDuplicateDeviceId) {
  mtb::Scenario s;
  s.device(0, mn::intel_x540());
  EXPECT_THROW(s.device(0, mn::intel_x540()), std::invalid_argument);
}

TEST(Scenario, RejectsLinkToUndeclaredDevice) {
  mtb::Scenario s;
  s.device(0, mn::intel_x540()).link(0, 7);
  EXPECT_THROW((void)s.build(), std::invalid_argument);
}

TEST(Scenario, RejectsForwarderOnUndeclaredDevice) {
  mtb::Scenario s;
  s.device(0, mn::intel_x540()).forwarder(0, 5);
  EXPECT_THROW((void)s.build(), std::invalid_argument);
}

TEST(Scenario, RejectsModifierWithoutCursor) {
  mtb::Scenario s;
  EXPECT_THROW(s.name("x"), std::logic_error);
  EXPECT_THROW(s.with_seed(7), std::logic_error);
  EXPECT_THROW(s.cable(moongen::wire::cat5e_10gbaset(2.0)), std::logic_error);
}

TEST(Scenario, RejectsDeviceModifierOnLinkCursor) {
  mtb::Scenario s;
  s.device(0, mn::intel_x540()).device(1, mn::intel_x540()).link(0, 1);
  EXPECT_THROW(s.rx_store(false), std::logic_error);  // link is current
}

TEST(Scenario, RejectsMalformedFaultSpec) {
  mtb::Scenario s;
  EXPECT_THROW(s.faults("loss@wire.l1:p=not_a_number"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Shard partitioning
// ---------------------------------------------------------------------------

TEST(Scenario, SingleShardByDefault) {
  auto tb = fig10_scenario(1).build();
  EXPECT_EQ(tb->shard_count(), 1u);
  EXPECT_EQ(tb->cross_shard_frames(), 0u);
  // engine() is unambiguous on one shard.
  EXPECT_NO_THROW((void)tb->engine());
}

TEST(Scenario, ShardCountCappedAtGroupCount) {
  // fig10's links join its two coupling groups, {0,3} and {1,2}, into one
  // component: asking for 8 shards yields 1. Two copies are two
  // components, and 8 shards yield 2, not 8 idle engines.
  auto one = fig10_scenario(8).build();
  EXPECT_EQ(one->shard_count(), 1u);
  auto two = fig10_scenario(8, 2).build();
  EXPECT_EQ(two->shard_count(), 2u);
}

TEST(Scenario, FullyCoupledScenarioIsSequential) {
  mtb::Scenario s = fig10_scenario(4);
  s.couple(0, 1);  // merges both groups -> one shard regardless of shards(4)
  auto tb = s.build();
  EXPECT_EQ(tb->shard_count(), 1u);
}

TEST(Scenario, CoupledDevicesShareAShard) {
  // fig10 without its links: couple(0, 3) and forwarder(1, 2) alone make
  // two components, each on one shard.
  mtb::Scenario s;
  s.shards(2)
      .device(0, mn::intel_x540())
      .device(1, mn::intel_x540())
      .device(2, mn::intel_x540())
      .device(3, mn::intel_x540())
      .forwarder(1, 2)
      .couple(0, 3);
  auto tb = s.build();
  EXPECT_EQ(tb->shard_count(), 2u);
  EXPECT_EQ(tb->shard_of(0), tb->shard_of(3));  // couple(0, 3)
  EXPECT_EQ(tb->shard_of(1), tb->shard_of(2));  // forwarder(1, 2)
  EXPECT_NE(tb->shard_of(0), tb->shard_of(1));
}

// ---------------------------------------------------------------------------
// Placement rule: a link joins its ends into one component
// ---------------------------------------------------------------------------

TEST(Scenario, LinkJoinsItsEndsIntoOneComponent) {
  mtb::Scenario s;
  s.shards(2).device(0, mn::intel_x540()).device(1, mn::intel_x540()).link(0, 1);
  auto tb = s.build();
  EXPECT_EQ(tb->shard_count(), 1u);
  EXPECT_EQ(tb->shard_of(0), tb->shard_of(1));
}

TEST(Scenario, EffectiveShardsAreMinOfRequestedAndComponents) {
  // Three duplex-linked pairs are three components.
  for (const int requested : {1, 2, 3, 4, 8}) {
    mtb::Scenario s;
    s.shards(requested);
    for (int p = 0; p < 3; ++p)
      s.device(2 * p, mn::intel_x540())
          .device(2 * p + 1, mn::intel_x540())
          .link(2 * p, 2 * p + 1).duplex();
    auto tb = s.build();
    EXPECT_EQ(tb->shard_count(), static_cast<std::size_t>(std::min(requested, 3))) << requested;
    for (int p = 0; p < 3; ++p) EXPECT_EQ(tb->shard_of(2 * p), tb->shard_of(2 * p + 1));
  }
}

namespace {

// The topologies of the sharded examples and of bench/e2e's simulated
// workloads as they declare them, minus seeds and load: placement depends
// only on devices, links, couplings and DuTs.

// l2_load_latency, rfc2544_throughput and bench/e2e's l2_forward.
mtb::Scenario l2_forward_topology(int shards) {
  mtb::Scenario s;
  s.shards(shards)
      .device(0, mn::intel_x540()).name("gen_tx")
      .device(1, mn::intel_x540()).name("dut_in")
      .device(2, mn::intel_x540()).name("dut_out")
      .device(3, mn::intel_x540()).name("sink")
      .link(0, 1)
      .link(2, 3)
      .forwarder(1, 2)
      .couple(0, 3);
  return s;
}

// ddos_isolation and bench/e2e's ddos_vswitch.
mtb::Scenario ddos_vswitch_topology(int shards) {
  mtb::Scenario s;
  s.shards(shards)
      .device(0, mn::intel_x540()).name("gen")
      .device(1, mn::intel_x540()).name("vs_in")
      .device(2, mn::intel_x540()).name("vport0").link_mbit(1'000)
      .device(3, mn::intel_x540()).name("sink0").link_mbit(1'000)
      .device(4, mn::intel_x540()).name("vport1")
      .device(5, mn::intel_x540()).name("sink1")
      .link(0, 1)
      .link(2, 3).latency_ns(25'000)
      .link(4, 5).latency_ns(5'000)
      .vswitch(1, {2, 4}, {});
  return s;
}

// rpc_load_latency and bench/e2e's rpc_open.
mtb::Scenario rpc_open_topology(int shards) {
  mtb::Scenario s;
  s.shards(shards);
  for (int i = 0; i < 2; ++i)
    s.device(2 * i, mn::intel_x540()).name("client" + std::to_string(i))
        .device(2 * i + 1, mn::intel_x540()).name("server" + std::to_string(i))
        .link(2 * i, 2 * i + 1).duplex();
  return s;
}

// parallel_scaling and bench/e2e's hwpaced_4x40g.
mtb::Scenario hwpaced_topology(int shards) {
  mtb::Scenario s;
  s.shards(shards).telemetry(false);
  for (int p = 0; p < 4; ++p)
    s.device(2 * p, mn::intel_xl710()).link_mbit(40'000)
        .device(2 * p + 1, mn::intel_xl710()).link_mbit(40'000)
        .link(2 * p, 2 * p + 1)
        .couple(2 * p, 2 * p + 1);
  return s;
}

// chaos_soak: the l2_load_latency pipeline plus two RPC pairs.
mtb::Scenario chaos_soak_topology(int shards) {
  mtb::Scenario s = l2_forward_topology(shards);
  for (int d = 4; d < 8; ++d) s.device(d, mn::intel_x540());
  s.link(4, 5).duplex().link(6, 7).duplex();
  return s;
}

}  // namespace

TEST(Scenario, ExampleAndBenchTopologiesBuildNoChannels) {
  struct Case {
    const char* name;
    mtb::Scenario (*make)(int);
    std::size_t components;
  };
  const Case cases[] = {{"l2_forward", l2_forward_topology, 1},
                        {"ddos_vswitch", ddos_vswitch_topology, 1},
                        {"rpc_open", rpc_open_topology, 2},
                        {"hwpaced_4x40g", hwpaced_topology, 4},
                        {"chaos_soak", chaos_soak_topology, 3}};
  for (const Case& c : cases) {
    for (const int shards : {1, 2, 4}) {
      auto tb = c.make(shards).build();
      EXPECT_EQ(tb->shard_count(), std::min<std::size_t>(shards, c.components))
          << c.name << " at " << shards;
    }
  }
}

TEST(Scenario, HwPacedPlacementIsRoundRobinOverPairs) {
  // Each coupled pair is its own component; pair p lands on shard
  // p % shards, the placement the coupling groups have always had.
  for (const int shards : {1, 2, 4}) {
    auto tb = hwpaced_topology(shards).build();
    for (int p = 0; p < 4; ++p) {
      const auto expected = static_cast<std::size_t>(p % shards);
      EXPECT_EQ(tb->shard_of(2 * p), expected) << "pair " << p << " at " << shards;
      EXPECT_EQ(tb->shard_of(2 * p + 1), expected) << "pair " << p << " at " << shards;
    }
  }
}

TEST(Testbed, MultiShardEngineLookupNeedsDeviceId) {
  auto tb = fig10_scenario(2, 2).build();
  EXPECT_THROW((void)tb->engine(), std::logic_error);
  EXPECT_NO_THROW((void)tb->engine(0));
  // Devices in one component resolve to the same engine object.
  EXPECT_EQ(&tb->engine(0), &tb->engine(2));
  EXPECT_NE(&tb->engine(0), &tb->engine(4));
}

// ---------------------------------------------------------------------------
// Component lookup
// ---------------------------------------------------------------------------

TEST(Testbed, LookupByNameAndId) {
  auto tb = fig10_scenario(1).build();
  EXPECT_EQ(&tb->port("gen_tx"), &tb->port(0));
  EXPECT_EQ(&tb->port("sink"), &tb->port(3));
  EXPECT_THROW((void)tb->port("nonexistent"), std::out_of_range);
  EXPECT_THROW((void)tb->port(42), std::out_of_range);
  EXPECT_NO_THROW((void)tb->link(0, 1));
  EXPECT_THROW((void)tb->link(3, 0), std::out_of_range);
  EXPECT_EQ(tb->forwarder_count(), 1u);
  EXPECT_THROW((void)tb->forwarder(1), std::out_of_range);
}

TEST(Testbed, DuplexLinkCreatesBothDirections) {
  mtb::Scenario s;
  s.device(0, mn::intel_x540()).device(1, mn::intel_x540()).link(0, 1).duplex().couple(0, 1);
  auto tb = s.build();
  EXPECT_NO_THROW((void)tb->link(0, 1));
  EXPECT_NO_THROW((void)tb->link(1, 0));
  EXPECT_NE(&tb->link(0, 1), &tb->link(1, 0));
}

TEST(Testbed, RunForAdvancesVirtualTime) {
  auto tb = fig10_scenario(1).build();
  tb->run_for(0.001);  // 1 ms
  EXPECT_EQ(tb->now(), static_cast<ms::SimTime>(1e9));  // ps
}

// ---------------------------------------------------------------------------
// Telemetry naming
// ---------------------------------------------------------------------------

TEST(Testbed, SequentialTelemetryKeepsLegacyEnginePrefix) {
  auto tb = fig10_scenario(1).build();
  tb->run_for(0.0001);
  const auto snap = tb->snapshot();
  EXPECT_TRUE(has_counter(snap, "engine.events_executed"));
  EXPECT_FALSE(has_counter(snap, "engine.shard0.events_executed"));
  EXPECT_TRUE(has_counter(snap, "port.gen_tx.tx_packets"));
}

TEST(Testbed, ShardedTelemetryUsesPerShardPrefixes) {
  auto tb = fig10_scenario(2, 2).build();
  tb->run_for(0.0001);
  const auto snap = tb->snapshot();
  EXPECT_TRUE(has_counter(snap, "engine.shard0.events_executed"));
  EXPECT_TRUE(has_counter(snap, "engine.shard1.events_executed"));
  EXPECT_FALSE(has_counter(snap, "engine.events_executed"));
}

TEST(Testbed, ExternalRegistryIsUsedWhenProvided) {
  mt::MetricRegistry external;
  mtb::Scenario s = fig10_scenario(1);
  s.telemetry(external);
  auto tb = s.build();
  EXPECT_EQ(&tb->registry(), &external);
  (void)tb->snapshot();
  EXPECT_GT(external.metric_count(), 0u);
}

// ---------------------------------------------------------------------------
// Periodic snapshots (Scenario::sample_telemetry, Testbed::snapshot)
// ---------------------------------------------------------------------------

TEST(Telemetry, SampledSeriesOpensAtZeroAndTicksEveryPeriod) {
  mtb::Scenario s = fig10_scenario(2, 2);
  s.sample_telemetry(100'000'000);
  auto tb = s.build();
  tb->run_until(300 * ms::kPsPerMs);
  std::vector<std::uint64_t> stamps;
  for (const auto& snap : tb->series()) stamps.push_back(snap.timestamp_ns);
  EXPECT_EQ(stamps, (std::vector<std::uint64_t>{0, 100'000'000, 200'000'000, 300'000'000}));
}

TEST(Telemetry, SampledSeriesKeepsTheNewestSnapshots) {
  mtb::Scenario s = fig10_scenario(1);
  s.sample_telemetry(1'000);  // 1 us: 1001 snapshots over 1 ms
  auto tb = s.build();
  tb->run_until(ms::kPsPerMs);
  const auto series = tb->series();
  ASSERT_EQ(series.size(), mtb::Testbed::kSeriesCapacity);
  EXPECT_EQ(series.back().timestamp_ns, 1'000'000u);
  EXPECT_EQ(series.front().timestamp_ns, 1'000'000u - (mtb::Testbed::kSeriesCapacity - 1) * 1'000);
}

TEST(Telemetry, SnapshotCountsEveryEngineEventWithoutAPublishCall) {
  for (const int shards : {1, 2}) {
    auto tb = fig10_scenario(shards, 2).build();
    mc::UdpTemplateOptions opts;
    opts.frame_size = 96;
    for (const char* gen : {"gen_tx", "gen_tx1"})
      for (int i = 0; i < 50; ++i) tb->port(gen).tx_queue(0).post(mc::make_udp_frame(opts));
    tb->run_for(0.001);
    std::uint64_t executed = 0;
    for (std::size_t k = 0; k < tb->shard_count(); ++k)
      executed += tb->runtime().shard(k).executed();
    ASSERT_GT(executed, 0u);
    std::uint64_t counted = 0;
    for (const auto& c : tb->snapshot().counters)
      if (c.name.starts_with("engine.") && c.name.ends_with(".events_executed")) counted += c.value;
    EXPECT_EQ(counted, executed) << shards << " shard(s)";
  }
}

TEST(Scenario, RejectsTelemetryPeriodOverflowingPicoseconds) {
  mtb::Scenario s = fig10_scenario(1);
  s.sample_telemetry(UINT64_MAX / 1'000 + 1);
  EXPECT_THROW((void)s.build(), std::invalid_argument);
}

TEST(Scenario, RejectsStreamPeriodBeyondRetainedRttWindows) {
  // 8192 retained windows of 1 us span 8.192 ms; a 10 ms tick would skip
  // windows evicted before the stream saw them.
  mtb::Scenario s = fig10_scenario(1);
  s.rtt_window_ns(1'000).stream_telemetry(::testing::TempDir() + "never_opened.jsonl",
                                          10'000'000);
  EXPECT_THROW((void)s.build(), std::invalid_argument);
}

TEST(Scenario, RejectsDifferentSampleAndStreamPeriods) {
  mtb::Scenario s = fig10_scenario(1);
  s.sample_telemetry(100'000'000)
      .stream_telemetry(::testing::TempDir() + "never_opened.jsonl", 50'000'000);
  EXPECT_THROW((void)s.build(), std::invalid_argument);
}

// The RPC plane sets its gauges where the counts change, so the registry
// agrees with the components' own books at every quiesced instant — no
// publish step, at any shard count.
TEST(Telemetry, RpcGaugesMatchTheirAccessorsAtEveryTick) {
  for (const int shards : {1, 4}) {
    mtb::Scenario s;
    s.seed(1).shards(shards).faults("seed=3;loss@wire:p=0.01;stall@rpc:p=0.01,param=2e8");
    for (int i = 0; i < 2; ++i) {
      s.device(2 * i, mn::intel_x540()).name("client" + std::to_string(i)).rx_store(false)
          .device(2 * i + 1, mn::intel_x540()).name("server" + std::to_string(i)).rx_store(false)
          .link(2 * i, 2 * i + 1).duplex();
    }
    auto tb = s.build();
    const ms::SimTime end_ps = 100 * ms::kPsPerMs;
    std::vector<std::unique_ptr<mr::ServerModel>> servers;
    std::vector<std::unique_ptr<mr::LatencyRecorder>> recorders;
    std::vector<std::unique_ptr<mr::OpenLoopGenerator>> clients;
    for (int i = 0; i < 2; ++i) {
      mr::ServerConfig sc;
      sc.service_mean_ps = 8.0 * 1e6;
      sc.queue_capacity = 64;  // small enough to overflow under the stalls
      sc.seed = 100 + static_cast<std::uint64_t>(i);
      servers.push_back(
          std::make_unique<mr::ServerModel>(tb->port("server" + std::to_string(i)), sc));
      servers.back()->install_faults(*tb->fault_plane(tb->shard_of(2 * i + 1)),
                                     "rpc.s" + std::to_string(i));
      servers.back()->bind_telemetry(tb->registry().shard(0), "rpc.server" + std::to_string(i));
      recorders.push_back(std::make_unique<mr::LatencyRecorder>());
      mr::WorkloadConfig wc;
      wc.offered_rps = 100'000;
      wc.seed = 200 + static_cast<std::uint64_t>(i);
      wc.seq_base = 1 + (static_cast<std::uint64_t>(i) << 32);
      wc.timeout_ps = 5 * ms::kPsPerMs;
      clients.push_back(std::make_unique<mr::OpenLoopGenerator>(
          tb->port("client" + std::to_string(i)), *recorders.back(), wc));
      clients.back()->start(0, end_ps);
      clients.back()->bind_telemetry(tb->registry().shard(0), "rpc.client" + std::to_string(i));
    }
    int ticks = 0;
    std::uint64_t timed_out = 0, stalls = 0, queue_drops = 0;
    for (ms::SimTime t = 10 * ms::kPsPerMs; t <= end_ps + 10 * ms::kPsPerMs;
         t += 10 * ms::kPsPerMs) {
      tb->schedule_global(t, [&] {
        ++ticks;
        const auto& reg = tb->registry();
        for (int i = 0; i < 2; ++i) {
          const std::string c = "rpc.client" + std::to_string(i);
          const auto& cl = *clients[static_cast<std::size_t>(i)];
          EXPECT_EQ(reg.gauge_value(c + ".issued"), static_cast<double>(cl.issued()));
          EXPECT_EQ(reg.gauge_value(c + ".matched"), static_cast<double>(cl.matched()));
          EXPECT_EQ(reg.gauge_value(c + ".inflight"), static_cast<double>(cl.inflight()));
          EXPECT_EQ(reg.gauge_value(c + ".peak_inflight"),
                    static_cast<double>(cl.peak_inflight()));
          EXPECT_EQ(reg.gauge_value(c + ".timed_out"), static_cast<double>(cl.timed_out()));
          EXPECT_EQ(reg.gauge_value(c + ".send_drops"), static_cast<double>(cl.send_drops()));
          const std::string v = "rpc.server" + std::to_string(i);
          const auto& sv = *servers[static_cast<std::size_t>(i)];
          EXPECT_EQ(reg.gauge_value(v + ".received"), static_cast<double>(sv.received()));
          EXPECT_EQ(reg.gauge_value(v + ".completed"), static_cast<double>(sv.completed()));
          EXPECT_EQ(reg.gauge_value(v + ".queue_depth"), static_cast<double>(sv.queue_depth()));
          EXPECT_EQ(reg.gauge_value(v + ".queue_drops"), static_cast<double>(sv.queue_drops()));
          EXPECT_EQ(reg.gauge_value(v + ".stalls"), static_cast<double>(sv.stalls()));
          timed_out += cl.timed_out();
          stalls += sv.stalls();
          queue_drops += sv.queue_drops();
        }
      });
    }
    tb->run_until(end_ps + 10 * ms::kPsPerMs);
    EXPECT_EQ(ticks, 11) << shards << " shard(s)";
    // The faults must have moved the rarely-changing gauges too.
    EXPECT_GT(timed_out, 0u);
    EXPECT_GT(stalls, 0u);
    EXPECT_GT(queue_drops, 0u);
  }
}

// Shards share nothing, so each shard's event order is a function of its
// own components: the per-shard engine counters (wheel vs heap placement
// included) repeat exactly from run to run, like stdout.
namespace {

using EngineCounters = std::vector<std::pair<std::string, std::uint64_t>>;

EngineCounters engine_counters(mtb::Testbed& tb) {
  EngineCounters out;
  for (const auto& c : tb.snapshot().counters)
    if (c.name.rfind("engine.shard", 0) == 0) out.emplace_back(c.name, c.value);
  return out;
}

EngineCounters fig10_engine_counters() {
  // Two copies, one per shard, both loaded.
  auto tb = fig10_scenario(2, 2).build();
  mc::UdpTemplateOptions opts;
  opts.frame_size = 96;
  std::vector<std::unique_ptr<mc::SimLoadGen>> gens;
  for (const char* gen : {"gen_tx", "gen_tx1"}) {
    auto& queue = tb->port(gen).tx_queue(0);
    queue.set_rate_mpps(2.0, 100);
    gens.push_back(mc::SimLoadGen::hardware_paced(queue, mc::make_udp_frame(opts)));
  }
  tb->run_until(20 * ms::kPsPerMs);
  return engine_counters(*tb);
}

EngineCounters rpc_engine_counters() {
  // Four client/server pairs, one per shard.
  mtb::Scenario s;
  s.seed(1).shards(4);
  for (int i = 0; i < 4; ++i) {
    s.device(2 * i, mn::intel_x540()).name("client" + std::to_string(i)).rx_store(false)
        .device(2 * i + 1, mn::intel_x540()).name("server" + std::to_string(i)).rx_store(false)
        .link(2 * i, 2 * i + 1).duplex();
  }
  auto tb = s.build();
  const ms::SimTime end_ps = 20 * ms::kPsPerMs;
  std::vector<std::unique_ptr<mr::ServerModel>> servers;
  std::vector<std::unique_ptr<mr::LatencyRecorder>> recorders;
  std::vector<std::unique_ptr<mr::OpenLoopGenerator>> clients;
  for (int i = 0; i < 4; ++i) {
    mr::ServerConfig sc;
    sc.service_mean_ps = 8.0 * 1e6;
    sc.seed = 100 + static_cast<std::uint64_t>(i);
    servers.push_back(
        std::make_unique<mr::ServerModel>(tb->port("server" + std::to_string(i)), sc));
    recorders.push_back(std::make_unique<mr::LatencyRecorder>());
    mr::WorkloadConfig wc;
    wc.offered_rps = 400'000;
    wc.seed = 200 + static_cast<std::uint64_t>(i);
    wc.seq_base = 1 + (static_cast<std::uint64_t>(i) << 32);
    clients.push_back(std::make_unique<mr::OpenLoopGenerator>(
        tb->port("client" + std::to_string(i)), *recorders.back(), wc));
    clients.back()->start(0, end_ps);
  }
  tb->run_until(end_ps + 5 * ms::kPsPerMs);
  return engine_counters(*tb);
}

}  // namespace

TEST(Testbed, ShardedEngineCountersRepeatAcrossRuns) {
  const EngineCounters fig10 = fig10_engine_counters();
  ASSERT_EQ(fig10.size(), 6u);  // events_executed, wheel_ and heap_scheduled per shard
  for (int run = 1; run < 3; ++run) EXPECT_EQ(fig10_engine_counters(), fig10) << "run " << run;

  const EngineCounters rpc = rpc_engine_counters();
  ASSERT_EQ(rpc.size(), 12u);
  for (int run = 1; run < 3; ++run) EXPECT_EQ(rpc_engine_counters(), rpc) << "run " << run;
}

// ---------------------------------------------------------------------------
// Fault plane integration
// ---------------------------------------------------------------------------

TEST(Testbed, FaultSitesLandOnTheOwningShardsPlane) {
  mtb::Scenario s = fig10_scenario(2, 2);
  s.faults("loss@wire.l1:p=1");  // drop everything on link 0->1
  auto tb = s.build();
  EXPECT_TRUE(tb->has_faults());
  // One plane per shard; the wire.l1 site lives on gen_tx's shard.
  EXPECT_NE(tb->fault_plane(0), nullptr);
  EXPECT_NE(tb->fault_plane(1), nullptr);
  mc::UdpTemplateOptions opts;
  opts.frame_size = 96;
  for (int i = 0; i < 50; ++i) tb->port("gen_tx").tx_queue(0).post(mc::make_udp_frame(opts));
  tb->run_for(0.001);
  EXPECT_GT(tb->fault_fires_at("wire.l1"), 0u);
  EXPECT_EQ(tb->fault_fires(), tb->fault_fires_at("wire.l1"));
}

TEST(Testbed, NoFaultsMeansNoPlanes) {
  auto tb = fig10_scenario(1).build();
  EXPECT_FALSE(tb->has_faults());
  EXPECT_EQ(tb->fault_plane(0), nullptr);
  EXPECT_EQ(tb->fault_fires(), 0u);
}

// ---------------------------------------------------------------------------
// Per-testbed DeviceTable
// ---------------------------------------------------------------------------

TEST(DeviceTable, TablesAreIsolated) {
  mc::DeviceTable a;
  mc::DeviceTable b;
  mc::Device& da = a.config(5, 1, 1);
  mc::Device& db = b.config(5, 1, 1);
  EXPECT_NE(&da, &db);  // same id, different tables, different devices
  da.set_link_up(false);
  EXPECT_FALSE(da.link_up());
  EXPECT_TRUE(db.link_up());  // state does not leak across tables
  da.set_link_up(true);
}

TEST(DeviceTable, FindDoesNotCreate) {
  mc::DeviceTable t;
  EXPECT_EQ(t.find(3), nullptr);
  mc::Device& d = t.config(3, 1, 1);
  EXPECT_EQ(t.find(3), &d);
}

TEST(DeviceTable, ReconfiguringAddsQueuesToTheSameDevice) {
  // Script handles, queue references and connected peers point at the
  // configured Device: asking for more queues must grow it in place, not
  // replace (and free) it.
  mc::DeviceTable t;
  mc::Device& dev = t.config(7);
  mc::Device& peer = t.config(8);
  dev.connect_to(peer);
  mc::TxQueue& tx0 = dev.get_tx_queue(0);
  mc::RxQueue& rx0 = peer.get_rx_queue(0);

  EXPECT_EQ(&t.config(7, 1, 2), &dev);
  EXPECT_EQ(&t.config(8, 3, 1), &peer);
  EXPECT_EQ(dev.num_tx_queues(), 2);
  EXPECT_EQ(dev.num_rx_queues(), 1);
  EXPECT_EQ(peer.num_rx_queues(), 3);
  EXPECT_EQ(&dev.get_tx_queue(0), &tx0);
  EXPECT_EQ(&t.config(7), &dev);  // fewer queues asked: nothing changes
  EXPECT_EQ(dev.num_tx_queues(), 2);

  // The earlier references still carry traffic over the old cable.
  mb::Mempool pool(64);
  mb::BufArray bufs(pool, 4);
  ASSERT_EQ(bufs.alloc(60), 4u);
  EXPECT_EQ(tx0.send(bufs), 4u);
  mb::BufArray got(8);
  EXPECT_EQ(rx0.recv(got), 4u);
  got.free_all();
  tx0.reset();
}

TEST(DeviceTable, ScenarioFastDevicesLiveInThePrivateTable) {
  auto tb = mtb::Scenario().fast_device(0, 1, 1).fast_device(1, 1, 1).fast_connect(0, 1).build();
  // The testbed's device 0 is NOT the process-global device 0.
  mc::Device& global0 = mc::DeviceTable::process_default().config(0, 1, 1);
  EXPECT_NE(&tb->fast_device(0), &global0);
  EXPECT_EQ(tb->fast_devices().find(0), &tb->fast_device(0));
  EXPECT_THROW((void)tb->fast_device(9), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Satellite: per-testbed RunState
// ---------------------------------------------------------------------------

TEST(RunState, InstancesAreIsolated) {
  mc::RunState a;
  mc::RunState b;
  EXPECT_TRUE(a.running());
  EXPECT_TRUE(b.running());
  a.request_stop();
  EXPECT_FALSE(a.running());
  EXPECT_TRUE(b.running());  // stopping one experiment leaves the other alone
  a.reset();
  EXPECT_TRUE(a.running());
}

TEST(RunState, StopAfterStops) {
  mc::RunState run;
  run.stop_after(0.02);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (run.running() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_FALSE(run.running());
}

TEST(RunState, ResetInvalidatesPendingStopAfter) {
  mc::RunState run;
  const std::uint64_t gen = run.generation();
  run.stop_after(0.1);
  run.reset();  // bumps generation before the timer fires
  EXPECT_GT(run.generation(), gen);
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_TRUE(run.running());  // the stale timer was a no-op
}

TEST(RunState, TestbedOwnsItsRunState) {
  auto tb1 = mtb::Scenario().fast_device(0, 1, 1).build();
  auto tb2 = mtb::Scenario().fast_device(0, 1, 1).build();
  tb1->run_state().request_stop();
  EXPECT_FALSE(tb1->run_state().running());
  EXPECT_TRUE(tb2->run_state().running());
  EXPECT_TRUE(mc::running());  // the process-global flag is untouched too
}
