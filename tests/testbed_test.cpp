// Tests of the Testbed/Scenario API: declaration validation, shard
// partitioning, component lookup, telemetry naming, and the private
// DeviceTable and RunState an experiment holds in place of the
// process-global ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/device.hpp"
#include "core/rate_control.hpp"
#include "core/task.hpp"
#include "core/timestamper.hpp"
#include "health/health.hpp"
#include "health/monitor.hpp"
#include "membuf/buf_array.hpp"
#include "membuf/mempool.hpp"
#include "nic/chip.hpp"
#include "rpc/latency_recorder.hpp"
#include "rpc/open_loop.hpp"
#include "rpc/server_model.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/rtt_plane.hpp"
#include "testbed/scenario.hpp"
#include "topologies.hpp"

namespace mb = moongen::membuf;
namespace mc = moongen::core;
namespace md = moongen::dut;
namespace mh = moongen::health;
namespace mn = moongen::nic;
namespace mr = moongen::rpc;
namespace ms = moongen::sim;
namespace mt = moongen::telemetry;
namespace mtb = moongen::testbed;
namespace topo = moongen::topologies;

namespace {

// The fig10 testbed (topologies::forwarder_path) used throughout,
// `copies` times over. Its links join its two coupling groups, {gen_tx,
// sink} and the DuT pair, into one component, so each copy is one
// component. Copy k has devices 4k..4k+3; names after the first copy end
// in k.
mtb::Scenario forwarder_paths(int shards, int copies = 1) {
  mtb::Scenario s;
  s.seed(1).shards(shards);
  for (int k = 0; k < copies; ++k)
    topo::forwarder_path(s, {.first_id = 4 * k, .suffix = k == 0 ? "" : std::to_string(k)});
  return s;
}

// `pairs` RPC client/server pairs as rpc_load_latency places them: pair i
// has devices 2i and 2i+1, named client<i> and server<i>. Each pair is one
// component.
mtb::Scenario rpc_pairs(int shards, int pairs) {
  mtb::Scenario s;
  s.seed(1).shards(shards);
  for (int i = 0; i < pairs; ++i)
    topo::rpc_pair(s, {.first_id = 2 * i, .suffix = std::to_string(i)});
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
  auto tb = forwarder_paths(1).build();
  EXPECT_EQ(tb->shard_count(), 1u);
  EXPECT_EQ(tb->cross_shard_frames(), 0u);
  // engine() is unambiguous on one shard.
  EXPECT_NO_THROW((void)tb->engine());
}

TEST(Scenario, ShardCountCappedAtGroupCount) {
  // fig10's links join its two coupling groups, {0,3} and {1,2}, into one
  // component: asking for 8 shards yields 1. Two copies are two
  // components, and 8 shards yield 2, not 8 idle engines.
  auto one = forwarder_paths(8).build();
  EXPECT_EQ(one->shard_count(), 1u);
  auto two = forwarder_paths(8, 2).build();
  EXPECT_EQ(two->shard_count(), 2u);
}

TEST(Scenario, FullyCoupledScenarioIsSequential) {
  mtb::Scenario s = forwarder_paths(4);
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

// The topologies of the sharded examples and bench binaries, built by the
// topology functions with the placements those pass, minus seeds and load:
// placement depends only on devices, links, couplings and DuTs.

// ddos_isolation.
mtb::Scenario ddos_vswitch_topology(int shards) {
  mtb::Scenario s;
  s.shards(shards);
  topo::vswitch_fanout(s, {}, {{.link_mbit = 1'000, .latency_ns = 25'000}, {.latency_ns = 5'000}},
                       {});
  return s;
}

// parallel_scaling.
mtb::Scenario hwpaced_topology(int shards) {
  mtb::Scenario s;
  s.shards(shards).telemetry(false);
  for (int p = 0; p < 4; ++p)
    topo::xl710_pair(s, {.first_id = 2 * p, .suffix = std::to_string(p)});
  return s;
}

// chaos_soak: the forwarder path plus two RPC pairs.
mtb::Scenario chaos_soak_topology(int shards) {
  mtb::Scenario s = forwarder_paths(shards);
  topo::rpc_pair(s, {.first_id = 4, .suffix = "0"});
  topo::rpc_pair(s, {.first_id = 6, .suffix = "1"});
  return s;
}

}  // namespace

TEST(Scenario, ExampleTopologiesBuildNoChannels) {
  struct Case {
    const char* name;
    mtb::Scenario (*make)(int);
    std::size_t components;
  };
  const Case cases[] = {
      {"l2_forward", [](int shards) { return forwarder_paths(shards); }, 1},
      {"ddos_vswitch", ddos_vswitch_topology, 1},
      {"rpc_open", [](int shards) { return rpc_pairs(shards, 2); }, 2},
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
  auto tb = forwarder_paths(2, 2).build();
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
  auto tb = forwarder_paths(1).build();
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
  auto tb = forwarder_paths(1).build();
  tb->run_for(0.001);  // 1 ms
  EXPECT_EQ(tb->now(), static_cast<ms::SimTime>(1e9));  // ps
}

// ---------------------------------------------------------------------------
// Telemetry naming
// ---------------------------------------------------------------------------

TEST(Testbed, SequentialTelemetryKeepsLegacyEnginePrefix) {
  auto tb = forwarder_paths(1).build();
  tb->run_for(0.0001);
  const auto snap = tb->snapshot();
  EXPECT_TRUE(has_counter(snap, "engine.events_executed"));
  EXPECT_FALSE(has_counter(snap, "engine.shard0.events_executed"));
  EXPECT_TRUE(has_counter(snap, "port.gen_tx.tx_packets"));
}

TEST(Testbed, ShardedTelemetryUsesPerShardPrefixes) {
  auto tb = forwarder_paths(2, 2).build();
  tb->run_for(0.0001);
  const auto snap = tb->snapshot();
  EXPECT_TRUE(has_counter(snap, "engine.shard0.events_executed"));
  EXPECT_TRUE(has_counter(snap, "engine.shard1.events_executed"));
  EXPECT_FALSE(has_counter(snap, "engine.events_executed"));
}

// ---------------------------------------------------------------------------
// Periodic snapshots (Scenario::sample_telemetry, Testbed::snapshot)
// ---------------------------------------------------------------------------

TEST(Telemetry, SampledSeriesOpensAtZeroAndTicksEveryPeriod) {
  mtb::Scenario s = forwarder_paths(2, 2);
  s.sample_telemetry(100'000'000);
  auto tb = s.build();
  tb->run_until(300 * ms::kPsPerMs);
  std::vector<std::uint64_t> stamps;
  for (const auto& snap : tb->series()) stamps.push_back(snap.timestamp_ns);
  EXPECT_EQ(stamps, (std::vector<std::uint64_t>{0, 100'000'000, 200'000'000, 300'000'000}));
}

TEST(Telemetry, SampledSeriesKeepsTheNewestSnapshots) {
  mtb::Scenario s = forwarder_paths(1);
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
    auto tb = forwarder_paths(shards, 2).build();
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
  mtb::Scenario s = forwarder_paths(1);
  s.sample_telemetry(UINT64_MAX / 1'000 + 1);
  EXPECT_THROW((void)s.build(), std::invalid_argument);
  // The RTT window is kept in picoseconds too; it would wrap to 384 ps.
  EXPECT_THROW(s.rtt_window_ns(UINT64_MAX / 1'000 + 1), std::invalid_argument);
  EXPECT_NO_THROW(s.rtt_window_ns(UINT64_MAX / 1'000));
}

// Port divides by the link speed and scales its pacing tick by
// max_link_mbit / link_mbit: a speed of 0 or above the chip's maximum
// must fail the build, naming the chip and the speed.
TEST(Scenario, RejectsLinkSpeedsTheChipCannotRun) {
  for (const std::uint64_t mbit : {std::uint64_t{0}, std::uint64_t{40'000}}) {
    mtb::Scenario s;
    s.device(0, mn::intel_x540()).link_mbit(mbit);
    try {
      (void)s.build();
      ADD_FAILURE() << mbit << " Mbit/s was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("X540"), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(mbit) + " Mbit/s"), std::string::npos) << what;
    }
  }
  mtb::Scenario ok;
  ok.device(0, mn::intel_82580()).link_mbit(1'000);
  EXPECT_NO_THROW((void)ok.build());
}

TEST(Scenario, RejectsStreamPeriodBeyondRetainedRttWindows) {
  // 8192 retained windows of 1 us span 8.192 ms; a 10 ms tick would skip
  // windows evicted before the stream saw them.
  mtb::Scenario s = forwarder_paths(1);
  s.rtt_window_ns(1'000).stream_telemetry(::testing::TempDir() + "never_opened.jsonl",
                                          10'000'000);
  EXPECT_THROW((void)s.build(), std::invalid_argument);
}

TEST(Scenario, RejectsDifferentSampleAndStreamPeriods) {
  mtb::Scenario s = forwarder_paths(1);
  s.sample_telemetry(100'000'000)
      .stream_telemetry(::testing::TempDir() + "never_opened.jsonl", 50'000'000);
  EXPECT_THROW((void)s.build(), std::invalid_argument);
}

// The RPC plane's gauges read the components' own books, so the registry
// agrees with them at every quiesced instant, at any shard count.
TEST(Telemetry, RpcGaugesMatchTheirAccessorsAtEveryTick) {
  for (const int shards : {1, 4}) {
    mtb::Scenario s = rpc_pairs(shards, 2);
    s.faults("seed=3;loss@wire:p=0.01;stall@rpc:p=0.01,param=2e8");
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
      servers.back()->bind_telemetry(tb->registry(), "rpc.server" + std::to_string(i));
      recorders.push_back(std::make_unique<mr::LatencyRecorder>());
      mr::WorkloadConfig wc;
      wc.offered_rps = 100'000;
      wc.seed = 200 + static_cast<std::uint64_t>(i);
      wc.seq_base = 1 + (static_cast<std::uint64_t>(i) << 32);
      wc.timeout_ps = 5 * ms::kPsPerMs;
      clients.push_back(std::make_unique<mr::OpenLoopGenerator>(
          tb->port("client" + std::to_string(i)), *recorders.back(), wc));
      clients.back()->start(0, end_ps);
      clients.back()->bind_telemetry(tb->registry(), "rpc.client" + std::to_string(i));
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

// A reader reads its component's field as it stands, so binding after
// traffic has run exports exactly what the component's getters say — for
// every component that can be bound. Each row names the prefixes its
// component exports under and the value every exported name must hold
// (nullopt: exported, but the component has no getter for it).
TEST(Telemetry, LateBindingIsExactForEveryComponent) {
  mt::MetricRegistry registry;  // outlives every component bound to it
  mtb::Scenario s;
  s.seed(1).telemetry(false);
  s.faults("seed=3;loss@wire.l1:p=0.002;stall@rpc.s0:p=0.01,param=2e8");
  topo::forwarder_path(s);  // devices 0-3, links wire.l1 and wire.l2
  md::VSwitchConfig vcfg;
  vcfg.tenants.push_back({.vid = 10, .vport = 0, .rate_mbit = 300.0});
  topo::vswitch_fanout(s, {.first_id = 4}, {{}}, vcfg);  // devices 4-7
  topo::rpc_pair(s, {.first_id = 8, .suffix = "0"});     // devices 8-9
  auto tb = s.build();
  const ms::SimTime end_ps = 20 * ms::kPsPerMs;

  // L2 path: CRC-paced Poisson load and a stream-mode timestamper.
  mc::UdpTemplateOptions bg;
  bg.frame_size = 96;
  bg.ptp_payload = true;
  bg.ptp_message_type = 5;
  auto gen = mc::SimLoadGen::crc_paced(tb->port("gen_tx").tx_queue(0), mc::make_udp_frame(bg),
                                       std::make_unique<mc::PoissonPattern>(1.0, 77), 10'000);
  mc::UdpTemplateOptions stamped = bg;
  stamped.ptp_message_type = 0;
  mc::TimestamperConfig tcfg;
  tcfg.sample_interval_ps = 100 * ms::kPsPerUs;
  mc::Timestamper ts(tb->engine(), tb->port("gen_tx"), *gen, mc::make_udp_frame(stamped),
                     tb->port("sink"), tcfg);
  ts.start();
  // Tenant 0 above its policer's rate, so shaping drops move too.
  mc::UdpTemplateOptions tenant;
  tenant.frame_size = 128;
  tenant.vlan = true;
  tenant.vlan_vid = 10;
  auto& vs_queue = tb->port("gen").tx_queue(0);
  vs_queue.set_rate_mpps(0.5, tenant.frame_size + 4);
  auto vs_gen = mc::SimLoadGen::hardware_paced(vs_queue, mc::make_udp_frame(tenant));
  // RPC pair, the server stalling now and then.
  mr::ServerConfig sc;
  sc.service_mean_ps = 4.0 * 1e6;
  mr::ServerModel server(tb->port("server0"), sc);
  server.install_faults(*tb->fault_plane(), "rpc.s0");
  mr::LatencyRecorder recorder;
  mr::WorkloadConfig wc;
  wc.offered_rps = 200'000;
  wc.timeout_ps = 2 * ms::kPsPerMs;
  mr::OpenLoopGenerator client(tb->port("client0"), recorder, wc);
  client.start(0, end_ps);
  tb->run_until(end_ps);

  // Components outside the testbed, driven by hand.
  mt::RttPlane plane({}, 1);
  for (std::uint64_t i = 0; i < 100; ++i) {
    plane.shard(0).note_tx_stamped();
    plane.shard(0).note_rx_seen();
    plane.shard(0).record(0, 1'000 + i);
  }
  plane.shard(0).note_tx_stamped();
  plane.shard(0).note_dropped();
  plane.close_window(100'000);
  plane.shard(0).note_tx_stamped();  // one more stamp in flight after the close
  mh::CheckerRegistry checkers;
  checkers.add("port.accounting", mh::make_port_checker(*tb));
  checkers.add("always.fails", [](ms::SimTime) { return mh::CheckResult::fail("by design"); });
  checkers.run_all(tb->now());
  checkers.run_all(tb->now());
  std::uint64_t pressure = 0;
  mh::DegradationGovernor gov("late",
                              {.pressure_threshold = 5, .enter_windows = 1, .exit_windows = 2},
                              [&pressure] { return pressure; }, {});
  for (const std::uint64_t step : {0, 10, 10, 0, 0, 10}) {
    pressure += step;
    gov.tick();
  }

  ASSERT_GT(ts.samples(), 0u);
  ASSERT_GT(gen->gap_frames(), 0u);
  ASSERT_GT(tb->fault_plane()->total_fires(), 0u);
  ASSERT_GT(tb->vswitch().shaped_drops(), 0u);
  ASSERT_GT(gov.enters(), 0u);

  using Expected = std::vector<std::pair<std::string, std::optional<double>>>;
  const auto d = [](auto v) { return std::optional<double>(static_cast<double>(v)); };
  struct Row {
    std::string component;
    std::vector<std::string> prefixes;
    std::function<void()> bind;
    std::function<Expected()> expected;
  };
  auto& port = tb->port("dut_in");
  auto& vsw = tb->vswitch();
  auto& engine = tb->engine();
  auto& faults = *tb->fault_plane();
  const std::vector<Row> rows = {
      {"Port", {"late.port.", "recover.late.port."},
       [&] { port.bind_telemetry(registry, "late.port"); },
       [&] {
         const auto& st = port.stats();
         return Expected{{"late.port.tx_packets", d(st.tx_packets)},
                         {"late.port.tx_bytes", d(st.tx_bytes)},
                         {"late.port.rx_packets", d(st.rx_packets)},
                         {"late.port.rx_bytes", d(st.rx_bytes)},
                         {"late.port.crc_errors", d(st.crc_errors)},
                         {"late.port.rx_ring_drops", d(st.rx_ring_drops)},
                         {"recover.late.port.link_resume", d(st.link_up_events)}};
       }},
      {"VSwitch", {"late.vswitch."},
       [&] { vsw.bind_telemetry(registry, "late.vswitch"); },
       [&] {
         Expected e{{"late.vswitch.received", d(vsw.received())},
                    {"late.vswitch.matched", d(vsw.matched())},
                    {"late.vswitch.flooded", d(vsw.flooded())},
                    {"late.vswitch.shaped_drops", d(vsw.shaped_drops())},
                    {"late.vswitch.queue_drops", d(vsw.queue_drops())},
                    {"late.vswitch.fault_drops", d(vsw.fault_drops())},
                    {"late.vswitch.emitted", d(vsw.emitted())},
                    {"late.vswitch.egress_ring_drops", d(vsw.egress_ring_drops())}};
         for (const auto& [idx, stem] : {std::pair<std::size_t, std::string>{0, "t0"},
                                         {vsw.tenant_count(), "flood"}}) {
           const auto books = vsw.tenant_counters(idx);
           const std::string p = "late.vswitch." + stem;
           e.push_back({p + ".matched", d(books.matched)});
           e.push_back({p + ".emitted", d(books.emitted)});
           e.push_back({p + ".shaped_drops", d(books.shaped_drops)});
           e.push_back({p + ".queue_drops", d(books.queue_drops)});
           e.push_back({p + ".egress_ring_drops", d(books.egress_ring_drops)});
         }
         return e;
       }},
      {"SimLoadGen", {"late.gen."},
       [&] { gen->bind_telemetry(registry, "late.gen"); },
       [&] {
         return Expected{{"late.gen.valid_frames", d(gen->valid_frames())},
                         {"late.gen.gap_frames", d(gen->gap_frames())},
                         {"late.gen.carry_bytes", std::nullopt}};
       }},
      {"Timestamper", {"late.ts.", "recover.late.ts."},
       [&] { ts.bind_telemetry(registry, "late.ts"); },
       [&] {
         return Expected{{"late.ts.samples", d(ts.samples())},
                         {"late.ts.lost", d(ts.lost())},
                         {"late.ts.discarded", d(ts.discarded())},
                         {"recover.late.ts.resync", d(ts.resyncs())},
                         {"late.ts.latency_ns{count}", d(ts.samples())}};
       }},
      {"EventQueue", {"late.engine."},
       [&] { engine.bind_telemetry(registry, "late.engine"); },
       [&] {
         const double wall_s = static_cast<double>(engine.run_wall_ns()) / 1e9;
         return Expected{{"late.engine.events_executed", d(engine.executed())},
                         {"late.engine.wheel_scheduled", d(engine.wheel_scheduled())},
                         {"late.engine.heap_scheduled", d(engine.heap_scheduled())},
                         {"late.engine.events_per_wall_second",
                          static_cast<double>(engine.executed()) / wall_s}};
       }},
      {"FaultPlane", {"late.fault."},
       [&] { faults.bind_telemetry(registry, "late.fault"); },
       [&] {
         return Expected{{"late.fault.total", d(faults.total_fires())},
                         {"late.fault.loss.wire.l1", d(faults.fires_at("wire.l1"))},
                         {"late.fault.stall.rpc.s0", d(faults.fires_at("rpc.s0"))}};
       }},
      {"RttPlane", {"late.rtt."},
       [&] { plane.bind_telemetry(registry, "late.rtt"); },
       [&] {
         const auto* w = plane.latest_window();
         return Expected{{"late.rtt.recorded", d(plane.recorded())},
                         {"late.rtt.tx_stamped", d(plane.tx_stamped())},
                         {"late.rtt.rx_seen", d(plane.rx_seen())},
                         {"late.rtt.dropped", d(plane.dropped())},
                         {"late.rtt.windows", d(plane.windows_closed())},
                         {"late.rtt.in_flight", d(plane.in_flight())},
                         {"late.rtt.p50_ns", d(w->p50)},
                         {"late.rtt.p99_ns", d(w->p99)},
                         {"late.rtt.p999_ns", d(w->p999)},
                         {"late.rtt.rtt_ns{count}", d(plane.recorded())}};
       }},
      {"CheckerRegistry", {"late.health."},
       [&] { checkers.bind_telemetry(registry, "late.health"); },
       [&] {
         return Expected{{"late.health.checks_run", d(checkers.checks_run())},
                         {"late.health.violations", d(checkers.violations().size())},
                         {"late.health.checkers", d(checkers.checker_count())}};
       }},
      {"DegradationGovernor", {"late.gov."},
       [&] { gov.bind_telemetry(registry, "late.gov"); },
       [&] {
         return Expected{{"late.gov.enter", d(gov.enters())},
                         {"late.gov.recover", d(gov.recovers())},
                         {"late.gov.active", d(gov.active() ? 1 : 0)}};
       }},
      {"rpc client", {"late.client."},
       [&] { client.bind_telemetry(registry, "late.client"); },
       [&] {
         return Expected{{"late.client.issued", d(client.issued())},
                         {"late.client.matched", d(client.matched())},
                         {"late.client.inflight", d(client.inflight())},
                         {"late.client.peak_inflight", d(client.peak_inflight())},
                         {"late.client.timed_out", d(client.timed_out())},
                         {"late.client.send_drops", d(client.send_drops())}};
       }},
      {"rpc server", {"late.server."},
       [&] { server.bind_telemetry(registry, "late.server"); },
       [&] {
         return Expected{{"late.server.received", d(server.received())},
                         {"late.server.completed", d(server.completed())},
                         {"late.server.queue_depth", d(server.queue_depth())},
                         {"late.server.queue_drops", d(server.queue_drops())},
                         {"late.server.stalls", d(server.stalls())}};
       }},
  };
  for (const auto& row : rows) row.bind();

  // Every exported value by name; a histogram by its count.
  std::map<std::string, double> exported;
  const auto snap = registry.snapshot();
  for (const auto& c : snap.counters) exported[c.name] = static_cast<double>(c.value);
  for (const auto& g : snap.gauges) exported[g.name] = g.value;
  for (const auto& h : snap.histograms)
    exported[h.name + "{count}"] = static_cast<double>(h.hist.total());
  for (const auto& row : rows) {
    const Expected expected = row.expected();
    for (const auto& [name, value] : expected) {
      const auto it = exported.find(name);
      ASSERT_NE(it, exported.end()) << row.component << ": " << name << " not exported";
      if (value.has_value()) {
        EXPECT_EQ(it->second, *value) << row.component << ": " << name;
      }
    }
    for (const auto& [name, value] : exported) {
      const bool mine = std::any_of(row.prefixes.begin(), row.prefixes.end(),
                                    [&](const std::string& p) { return name.starts_with(p); });
      const bool listed = std::any_of(expected.begin(), expected.end(),
                                      [&](const auto& e) { return e.first == name; });
      EXPECT_TRUE(!mine || listed) << row.component << " exports unchecked " << name;
    }
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
  auto tb = forwarder_paths(2, 2).build();
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
  auto tb = rpc_pairs(4, 4).build();
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
  mtb::Scenario s = forwarder_paths(2, 2);
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
  auto tb = forwarder_paths(1).build();
  EXPECT_FALSE(tb->has_faults());
  EXPECT_EQ(tb->fault_plane(0), nullptr);
  EXPECT_EQ(tb->fault_fires(), 0u);
}

// ---------------------------------------------------------------------------
// Private DeviceTable
// ---------------------------------------------------------------------------

TEST(DeviceTable, TablesAreIsolated) {
  mc::DeviceTable a;
  mc::DeviceTable b;
  mc::Device& da = a.config(5, 1, 1);
  mc::Device& db = b.config(5, 1, 1);
  EXPECT_NE(&da, &db);  // same id, different tables, different devices
  a.config(5, 3, 2);
  EXPECT_EQ(da.num_rx_queues(), 3);
  EXPECT_EQ(db.num_rx_queues(), 1);  // state does not leak across tables
  EXPECT_EQ(db.num_tx_queues(), 1);
}

TEST(DeviceTable, ScenarioFastDevicesLiveInThePrivateTable) {
  // A fast-path experiment (quickstart, quality_of_service_test) holds its
  // connected devices in a table of its own.
  mc::DeviceTable devices;
  mc::Device& tx_dev = devices.config(0, 1, 1);
  mc::Device& rx_dev = devices.config(1, 1, 1);
  tx_dev.connect_to(rx_dev);
  // The experiment's device 0 is NOT the process-global device 0.
  mc::Device& global0 = mc::DeviceTable::process_default().config(0, 1, 1);
  EXPECT_NE(&tx_dev, &global0);
  EXPECT_EQ(devices.find(0), &tx_dev);
  EXPECT_EQ(devices.find(1), &rx_dev);
  EXPECT_EQ(devices.find(9), nullptr);

  // The cable ends at the private table's device 1.
  mb::Mempool pool(64);
  mb::BufArray txb(pool, 8);
  txb.alloc(60);
  tx_dev.get_tx_queue(0).send(txb);
  mb::BufArray rxb(16);
  EXPECT_EQ(rx_dev.get_rx_queue(0).recv(rxb), 8u);
  rxb.free_all();
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

// ---------------------------------------------------------------------------
// Private RunState
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
