// Tests for the always-on in-path RTT plane (src/telemetry/rtt_plane.*),
// the per-shard metric handle API it rides on, the Timestamper-vs-plane
// reconciliation under fault loss, and the streaming telemetry exporter:
//  * window quantiles, reset and flow-group selection at the unit level;
//  * window-merge determinism — the serialized window stream is
//    byte-identical across --shards 1/2/4 (the DESIGN.md contract);
//  * stamp conservation under fault-plane loss (lost stamps count as
//    drops; in-flight never negative) via health::make_rtt_checker;
//  * Timestamper sampled-path reconciliation: attempts == samples + lost
//    + discarded (+ in-flight) exactly, even when faults eat the probes;
//  * handle-API parity: the legacy name-keyed shim and the per-shard tree
//    handles feed the same shard-agnostic read APIs;
//  * TelemetryStream writes snapshots + windows to its file, leaves the
//    simulated run untouched, and writes exactly the snapshots the sampled
//    series records.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/rate_control.hpp"
#include "core/timestamper.hpp"
#include "health/health.hpp"
#include "nic/chip.hpp"
#include "sim_testbed.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/rtt_plane.hpp"
#include "telemetry/stream.hpp"
#include "testbed/scenario.hpp"

namespace mc = moongen::core;
namespace mf = moongen::fault;
namespace mh = moongen::health;
namespace mn = moongen::nic;
namespace ms = moongen::sim;
namespace mt = moongen::telemetry;
namespace mtb = moongen::testbed;

namespace {

/// The l2_load_latency topology: generator -> forwarder DuT -> sink,
/// `copies` times over. Each copy is one component; copy k has devices
/// 4k..4k+3 and seeds of its own, and its names after the first copy end
/// in k.
mtb::Scenario l2_scenario(int shards, const std::string& faults = "", int copies = 1) {
  mtb::Scenario sc;
  sc.seed(1).shards(shards);
  for (int k = 0; k < copies; ++k) {
    const int d = 4 * k;
    const std::uint64_t seed = 10 * static_cast<std::uint64_t>(k);
    const std::string suffix = k == 0 ? "" : std::to_string(k);
    sc.device(d, mn::intel_x540()).name("gen_tx" + suffix).with_seed(seed + 1)
        .device(d + 1, mn::intel_x540()).name("dut_in" + suffix).with_seed(seed + 2)
        .rtt_record(false)
        .device(d + 2, mn::intel_x540()).name("dut_out" + suffix).with_seed(seed + 3)
        .rtt_record(false)
        .device(d + 3, mn::intel_x540()).name("sink" + suffix).with_seed(seed + 4)
        .rx_store(false)
        .link(d, d + 1).with_seed(seed + 5)
        .link(d + 2, d + 3).with_seed(seed + 6)
        .forwarder(d + 1, d + 2)
        .couple(d, d + 3);
  }
  if (!faults.empty()) sc.faults(faults);
  return sc;
}

/// Loads every copy's generator with 96 B hardware-paced frames.
std::vector<std::unique_ptr<mc::SimLoadGen>> start_load(mtb::Testbed& tb, double rate_mpps) {
  mc::UdpTemplateOptions bg;
  bg.frame_size = 96;
  std::vector<std::unique_ptr<mc::SimLoadGen>> gens;
  for (const int id : tb.device_ids()) {
    if (id % 4 != 0) continue;
    auto& queue = tb.port(id).tx_queue(0);
    queue.set_rate_mpps(rate_mpps, 100);
    gens.push_back(mc::SimLoadGen::hardware_paced(queue, mc::make_udp_frame(bg)));
  }
  return gens;
}

std::string serialize_windows(const mt::RttPlane& plane) {
  std::ostringstream os;
  for (const auto& w : plane.windows()) mt::RttPlane::write_window_json(os, w);
  return os.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// Unit level: RttShard / RttPlane
// ---------------------------------------------------------------------------

TEST(RttPlaneUnit, WindowQuantilesAndReset) {
  mt::RttPlaneConfig cfg;
  cfg.window_ps = 1'000'000;
  mt::RttPlane plane(cfg, 1);
  auto& shard = plane.shard(0);
  for (std::uint64_t i = 1; i <= 100; ++i) {
    shard.note_tx_stamped();
    shard.note_rx_seen();
    shard.record(0, i * 100);  // 100ns .. 10us
  }
  plane.close_window(cfg.window_ps);
  ASSERT_EQ(plane.windows_closed(), 1u);
  const mt::RttWindow& w = plane.windows().front();
  EXPECT_EQ(w.start_ps, 0u);
  EXPECT_EQ(w.end_ps, cfg.window_ps);
  EXPECT_EQ(w.count, 100u);
  EXPECT_EQ(w.dropped, 0u);
  // Log-linear buckets return lower edges: the medians land near the middle
  // of the recorded range, within the histogram's 6.25 % relative error.
  EXPECT_NEAR(static_cast<double>(w.p50), 5'000.0, 5'000.0 * 0.07);
  EXPECT_GE(w.p99, w.p50);
  EXPECT_GE(w.p999, w.p99);
  EXPECT_LE(w.min_ns, 100u);
  // The window histogram resets; the cumulative one keeps the population.
  plane.close_window(2 * cfg.window_ps);
  EXPECT_EQ(plane.windows().back().count, 0u);
  EXPECT_EQ(plane.cumulative().total(), 100u);
  EXPECT_EQ(plane.recorded(), 100u);
  EXPECT_EQ(plane.in_flight(), 0);
}

TEST(RttPlaneUnit, FlowGroupsRoundUpToPowerOfTwo) {
  mt::RttPlaneConfig cfg;
  cfg.flow_groups = 3;
  mt::RttPlane plane(cfg, 1);
  EXPECT_EQ(plane.group_count(), 4u);
  auto& shard = plane.shard(0);
  shard.record(0, 100);
  shard.record(1, 200);
  shard.record(5, 300);  // 5 & 3 == 1
  plane.close_window(cfg.window_ps);
  const auto& w = plane.windows().front();
  ASSERT_EQ(w.groups.size(), 4u);
  EXPECT_EQ(w.groups[0].count, 1u);
  EXPECT_EQ(w.groups[1].count, 2u);
  EXPECT_EQ(w.groups[2].count, 0u);
  EXPECT_EQ(w.count, 3u);
}

TEST(RttPlaneUnit, ShardMergeMatchesSingleShard) {
  // The same multiset of observations, recorded on one shard vs. split
  // across two, must serialize to byte-identical windows.
  mt::RttPlaneConfig cfg;
  cfg.flow_groups = 2;
  mt::RttPlane one(cfg, 1);
  mt::RttPlane two(cfg, 2);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint32_t flow = static_cast<std::uint32_t>(i % 2);
    const std::uint64_t rtt = 50 + (i * i) % 70'000;
    one.shard(0).record(flow, rtt);
    two.shard(i % 2).record(flow, rtt);
  }
  one.close_window(cfg.window_ps);
  two.close_window(cfg.window_ps);
  EXPECT_EQ(serialize_windows(one), serialize_windows(two));
}

TEST(RttPlaneUnit, WindowJsonIsSingleLineWithSchema) {
  mt::RttPlaneConfig cfg;
  mt::RttPlane plane(cfg, 1);
  plane.shard(0).record(0, 750);
  plane.close_window(cfg.window_ps);
  std::ostringstream os;
  mt::RttPlane::write_window_json(os, plane.windows().front());
  const std::string line = os.str();
  EXPECT_NE(line.find("moongen-rtt-window-v1"), std::string::npos);
  EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1);
  EXPECT_EQ(line.back(), '\n');
}

// ---------------------------------------------------------------------------
// Scenario level: window-merge determinism across shard counts
// ---------------------------------------------------------------------------

TEST(RttPlaneScenario, WindowStreamIsByteIdenticalAcrossShardCounts) {
  // Two copies of the topology: two shards at --shards 2 and 4.
  std::vector<std::string> streams;
  std::vector<std::uint64_t> recorded;
  for (int shards : {1, 2, 4}) {
    auto tb = l2_scenario(shards, "", 2).rtt_groups(2).build();
    EXPECT_EQ(tb->shard_count(), shards == 1 ? 1u : 2u);
    auto gens = start_load(*tb, 1.0);
    tb->run_until(500 * ms::kPsPerMs);  // 5 windows at the default 100 ms
    ASSERT_TRUE(tb->has_rtt_plane());
    auto& plane = tb->rtt_plane();
    EXPECT_EQ(plane.windows_closed(), 5u);
    EXPECT_GT(plane.recorded(), 200'000u);  // ~500k frames per copy at 1 Mpps
    streams.push_back(serialize_windows(plane));
    recorded.push_back(plane.recorded());
  }
  EXPECT_EQ(streams[0], streams[1]);
  EXPECT_EQ(streams[0], streams[2]);
  EXPECT_EQ(recorded[0], recorded[1]);
  EXPECT_EQ(recorded[0], recorded[2]);
}

TEST(RttPlaneScenario, MidJourneyPortsCountConservationButDoNotRecord) {
  auto tb = l2_scenario(1).build();
  auto gens = start_load(*tb, 1.0);
  tb->run_until(100 * ms::kPsPerMs);
  auto& plane = tb->rtt_plane();
  // Every frame is seen twice (dut_in mid-journey + sink end-to-end) but
  // recorded once: rtt_record(false) keeps the DuT ingress out of the
  // histograms without breaking the books.
  EXPECT_GT(plane.recorded(), 0u);
  EXPECT_GE(plane.rx_seen(), 2 * plane.recorded());
  EXPECT_GE(plane.in_flight(), 0);
  auto check = mh::make_rtt_checker(plane);
  EXPECT_TRUE(check(tb->now()).ok);
}

// ---------------------------------------------------------------------------
// Conservation under fault-plane loss
// ---------------------------------------------------------------------------

TEST(RttPlaneScenario, LostStampsCountAsDropsUnderFaultLoss) {
  auto tb = l2_scenario(1, "seed=7;loss@wire.l1:p=0.05").build();
  auto gens = start_load(*tb, 1.0);
  tb->run_until(200 * ms::kPsPerMs);
  auto& plane = tb->rtt_plane();
  const auto wire_drops = tb->link(0, 1).fault_drops();
  EXPECT_GT(wire_drops, 0u);
  // Every dropped frame was stamped (all load frames are), so the plane's
  // drop count covers at least the wire's losses — no silent shrinkage.
  EXPECT_GE(plane.dropped(), wire_drops);
  EXPECT_GE(plane.in_flight(), 0);
  auto check = mh::make_rtt_checker(plane);
  const auto result = check(tb->now());
  EXPECT_TRUE(result.ok) << result.detail;
}

// ---------------------------------------------------------------------------
// Timestamper sampled-path reconciliation (the satellite fix)
// ---------------------------------------------------------------------------

TEST(TimestamperReconciliation, AttemptsEqualSamplesPlusLostUnderLoss) {
  moongen::test::TenGbeFiberBed bed;
  const auto spec = mf::FaultSpec::parse("seed=31;loss@wire.ab:p=0.1");
  mf::FaultPlane plane(spec, &bed.events);
  bed.link.install_faults(plane, "wire.ab");

  mc::TimestamperConfig cfg;
  cfg.sample_interval_ps = 100 * ms::kPsPerUs;
  cfg.timeout_ps = 1 * ms::kPsPerMs;
  mc::Timestamper ts(bed.events, bed.a, 0, bed.b, mc::make_ptp_ethernet_frame(96), cfg);
  ts.start();
  auto check = mh::make_timestamper_checker(ts);
  bed.events.run_until(100 * ms::kPsPerMs);
  // Mid-run the identity already holds (a sample may be in flight).
  const auto mid = check(bed.events.now());
  EXPECT_TRUE(mid.ok) << mid.detail;
  bed.events.run_until(200 * ms::kPsPerMs);
  ts.stop();
  bed.events.run();  // drain in-flight probes and pending timeouts

  EXPECT_GT(ts.lost(), 0u);
  EXPECT_GT(ts.samples(), 0u);
  EXPECT_FALSE(ts.sample_in_flight());
  EXPECT_EQ(ts.attempts(), ts.samples() + ts.lost() + ts.discarded());
  const auto done = check(bed.events.now());
  EXPECT_TRUE(done.ok) << done.detail;
}

// ---------------------------------------------------------------------------
// Handle-API reads across per-shard trees
// ---------------------------------------------------------------------------

TEST(HandleParity, ReadApisMergeAcrossShardTrees) {
  mt::MetricRegistry registry;
  registry.shard(0).counter("x.count").add(2);
  registry.shard(0).gauge("x.level").set(1.0);
  registry.shard(0).histogram("x.hist").record(100);
  registry.shard(0).counter("x.count").add(3);
  registry.shard(1).counter("x.count").add(5);
  registry.shard(1).gauge("x.level").set(4.0);
  registry.shard(0).histogram("x.hist").record(200);

  EXPECT_EQ(registry.counter_value("x.count"), 10u);
  // Last-writer-wins in (tree 0, tree 1, ...) order.
  EXPECT_EQ(registry.gauge_value("x.level"), 4.0);
  EXPECT_EQ(registry.histogram_merged("x.hist").total(), 2u);
  // Every tree's population shows up in one snapshot under the same names.
  const auto snap = registry.snapshot(0);
  std::uint64_t counted = 0;
  for (const auto& c : snap.counters)
    if (c.name == "x.count") counted += c.value;
  EXPECT_EQ(counted, 10u);
}

TEST(HandleParity, DefaultConstructedHandlesAreInertNoOps) {
  mt::CounterHandle c;
  mt::GaugeHandle g;
  mt::HistogramHandle h;
  EXPECT_FALSE(c.valid());
  EXPECT_FALSE(g.valid());
  EXPECT_FALSE(h.valid());
  c.add(1);  // must not crash
  g.set(2.0);
  h.record(3);
}

// ---------------------------------------------------------------------------
// Streaming exporter
// ---------------------------------------------------------------------------

TEST(StreamTelemetry, WritesSnapshotsAndRttWindowsToFile) {
  const std::string path = ::testing::TempDir() + "rtt_stream_test.jsonl";
  {
    auto sc = l2_scenario(2, "", 2);
    sc.stream_telemetry(path, 100'000'000);  // one tick per 100 ms window
    auto tb = sc.build();
    ASSERT_EQ(tb->shard_count(), 2u);
    auto gens = start_load(*tb, 1.0);
    tb->run_until(300 * ms::kPsPerMs);
    ASSERT_NE(tb->stream(), nullptr);
    EXPECT_EQ(tb->stream()->ticks(), 3u);
    EXPECT_EQ(tb->stream()->windows_streamed(), tb->rtt_plane().windows_closed());
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("moongen-rtt-window-v1"), std::string::npos);
  EXPECT_NE(content.find("port.gen_tx"), std::string::npos);
  std::remove(path.c_str());
}

TEST(StreamTelemetry, StreamingDoesNotPerturbTheSimulatedRun) {
  // The determinism contract behind the CI byte-identity gate: a streamed
  // run produces exactly the same simulated outcome as an unstreamed one.
  std::string with_stream, without_stream;
  std::uint64_t tx_with = 0, tx_without = 0;
  const std::string path = ::testing::TempDir() + "rtt_stream_identity.jsonl";
  for (bool streamed : {false, true}) {
    auto sc = l2_scenario(1);
    if (streamed) sc.stream_telemetry(path, 100'000'000);
    auto tb = sc.build();
    auto gens = start_load(*tb, 1.0);
    tb->run_until(300 * ms::kPsPerMs);
    (streamed ? with_stream : without_stream) = serialize_windows(tb->rtt_plane());
    (streamed ? tx_with : tx_without) = tb->port("gen_tx").stats().tx_packets;
  }
  EXPECT_EQ(with_stream, without_stream);
  EXPECT_EQ(tx_with, tx_without);
  std::remove(path.c_str());
}

TEST(StreamTelemetry, EachStreamedSnapshotEqualsTheMatchingSeriesEntry) {
  // Sampling and streaming share one hook and one snapshot per tick: the
  // file line and the in-memory entry are the same object serialized.
  const std::string path = ::testing::TempDir() + "rtt_stream_series.jsonl";
  std::vector<std::string> expected;
  for (const int shards : {1, 2}) {
    {
      auto sc = l2_scenario(shards, "", shards);
      sc.sample_telemetry(100'000'000).stream_telemetry(path, 100'000'000);
      auto tb = sc.build();
      ASSERT_EQ(tb->shard_count(), static_cast<std::size_t>(shards));
      auto gens = start_load(*tb, 1.0);
      tb->run_until(300 * ms::kPsPerMs);
      const auto series = tb->series();
      ASSERT_EQ(series.size(), 4u);  // t=0 plus three ticks
      expected.clear();
      for (std::size_t i = 1; i < series.size(); ++i) {
        std::ostringstream os;
        mt::write_json(os, series[i]);
        expected.push_back(os.str());
      }
    }
    std::ifstream in(path);
    std::vector<std::string> streamed;
    for (std::string line; std::getline(in, line);)
      if (line.rfind("{\"schema\":\"moongen-telemetry-v1\"", 0) == 0) streamed.push_back(line);
    EXPECT_EQ(streamed, expected) << shards << " shard(s)";
  }
  std::remove(path.c_str());
}
