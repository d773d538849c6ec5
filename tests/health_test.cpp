// Tests for the runtime health plane (src/health): invariant checkers and
// their conservation laws, the parallel-runtime watchdog, the flight
// recorder's rings and JSON dump, graceful-degradation hysteresis, the
// observation-only (byte-identity) contract, and fault-rule validation.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rate_control.hpp"
#include "health/monitor.hpp"
#include "membuf/mempool.hpp"
#include "rpc/open_loop.hpp"
#include "rpc/server_model.hpp"
#include "sim/event_queue.hpp"
#include "testbed/scenario.hpp"
#include "topologies.hpp"

namespace mc = moongen::core;
namespace mf = moongen::fault;
namespace mh = moongen::health;
namespace mm = moongen::membuf;
namespace mr = moongen::rpc;
namespace ms = moongen::sim;
namespace mtb = moongen::testbed;
namespace topo = moongen::topologies;

namespace {

/// The l2_load_latency testbed (generator -> forwarder DuT -> sink),
/// `copies` times over. Each copy is one component; copy k has devices
/// 4k..4k+3 and seeds of its own, and its names after the first copy end
/// in k.
std::unique_ptr<mtb::Testbed> l2_bed(int shards, const mf::FaultSpec& spec = {},
                                     int copies = 1) {
  mtb::Scenario s;
  s.seed(1).shards(shards).telemetry(false).faults(spec);
  for (int k = 0; k < copies; ++k) {
    const std::uint64_t seed = 10 * static_cast<std::uint64_t>(k);
    topo::forwarder_path(s, {.first_id = 4 * k,
                             .suffix = k == 0 ? "" : std::to_string(k),
                             .device_seeds = {seed + 1, seed + 2, seed + 3, seed + 4},
                             .link_seeds = {seed + 5, seed + 6}});
  }
  return s.build();
}

/// Loads every copy's generator with 96 B hardware-paced frames.
std::vector<std::unique_ptr<mc::SimLoadGen>> start_l2_load(mtb::Testbed& tb, double rate_mpps) {
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

/// One RPC client and server on a duplex cable.
std::unique_ptr<mtb::Testbed> rpc_bed(const mf::FaultSpec& spec = {}) {
  mtb::Scenario s;
  s.seed(1).telemetry(false).faults(spec);
  topo::rpc_pair(s, {.device_seeds = {10, 20}, .link_seeds = {30}});
  return s.build();
}

}  // namespace

// ---------------------------------------------------------------------------
// CheckerRegistry
// ---------------------------------------------------------------------------

TEST(CheckerRegistry, AccumulatesViolationsAcrossPasses) {
  mh::CheckerRegistry reg;
  int calls = 0;
  reg.add("always_ok", [](ms::SimTime) { return mh::CheckResult::pass(); });
  reg.add("fails_on_second", [&calls](ms::SimTime) {
    return ++calls < 2 ? mh::CheckResult::pass() : mh::CheckResult::fail("broke");
  });
  EXPECT_EQ(reg.checker_count(), 2u);

  EXPECT_TRUE(reg.run_all(100).empty());
  const auto fresh = reg.run_all(200);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].checker, "fails_on_second");
  EXPECT_EQ(fresh[0].detail, "broke");
  EXPECT_EQ(fresh[0].when_ps, 200u);
  EXPECT_EQ(reg.violations().size(), 1u);
  EXPECT_EQ(reg.checks_run(), 4u);
}

// ---------------------------------------------------------------------------
// Engine checker
// ---------------------------------------------------------------------------

TEST(EngineChecker, AuditIsCleanOnABusyQueue) {
  ms::EventQueue q;
  int ran = 0;
  // Populate every storage tier: ready slot, wheel slots, overflow heap.
  for (int i = 0; i < 200; ++i) q.schedule_at(static_cast<ms::SimTime>(i) * 1000, [&] { ++ran; });
  for (int i = 0; i < 50; ++i)
    q.schedule_at(ms::EventQueue::kHorizonPs * 2 + static_cast<ms::SimTime>(i), [&] { ++ran; });
  EXPECT_EQ(q.audit(), "");
  q.run_until(100'000);
  EXPECT_EQ(q.audit(), "");
  auto check = mh::make_engine_checker(q, "t");
  EXPECT_TRUE(check(q.now()).ok);
  q.run_until(ms::EventQueue::kHorizonPs * 3);
  EXPECT_EQ(q.audit(), "");
  EXPECT_EQ(ran, 250);
  EXPECT_TRUE(check(q.now()).ok);
}

// ---------------------------------------------------------------------------
// Mempool checker
// ---------------------------------------------------------------------------

TEST(MempoolChecker, DetectsLeakAndDoubleCountViaHeldBooks) {
  mm::Mempool pool(32);
  std::size_t held = 0;
  auto check = mh::make_mempool_checker(pool, [&held] { return held; });
  EXPECT_TRUE(check(0).ok);

  // Honest allocation: books balance.
  mm::PktBuf* a = pool.alloc(64);
  ASSERT_NE(a, nullptr);
  held = 1;
  EXPECT_TRUE(check(0).ok);

  // Leak: allocated but not in the books.
  mm::PktBuf* leaked = pool.alloc(64);
  ASSERT_NE(leaked, nullptr);
  const auto leak = check(0);
  EXPECT_FALSE(leak.ok);
  EXPECT_NE(leak.detail.find("leak"), std::string::npos);

  // Double count: books claim more than the pool is missing.
  pool.free(leaked);
  held = 2;
  const auto dbl = check(0);
  EXPECT_FALSE(dbl.ok);
  EXPECT_NE(dbl.detail.find("double free"), std::string::npos);
}

TEST(MempoolChecker, AuditCatchesADoubleFree) {
  mm::Mempool pool(8);
  mm::PktBuf* a = pool.alloc(64);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(pool.audit(), "");
  pool.free(a);
  EXPECT_EQ(pool.audit(), "");
  pool.free(a);  // the corruption an audit exists to catch
  EXPECT_NE(pool.audit(), "");
  auto check = mh::make_mempool_checker(pool);
  EXPECT_FALSE(check(0).ok);
}

// ---------------------------------------------------------------------------
// Link / port checkers on a live testbed
// ---------------------------------------------------------------------------

TEST(LinkChecker, ConservationHoldsUnderLossCorruptDupFaults) {
  const auto spec =
      mf::FaultSpec::parse("seed=9;loss@wire:p=0.01;corrupt@wire.l1:p=0.005;dup@wire.l2:p=0.005");
  auto tb = l2_bed(1, spec);
  const auto gens = start_l2_load(*tb, 2.0);
  tb->run_until(20 * ms::kPsPerMs);

  auto link_check = mh::make_link_checker(*tb);
  auto port_check = mh::make_port_checker(*tb);
  EXPECT_TRUE(link_check(tb->now()).ok) << link_check(tb->now()).detail;
  EXPECT_TRUE(port_check(tb->now()).ok) << port_check(tb->now()).detail;
  // The faults genuinely fired — the laws held under stress, not vacuously.
  EXPECT_GT(tb->link_at(0).fault_drops() + tb->link_at(1).fault_drops(), 0u);
  EXPECT_GT(tb->link_at(0).corrupted(), 0u);
  EXPECT_GT(tb->link_at(1).duplicated(), 0u);
}

TEST(Testbed, TopologyEnumerationMatchesDeclaration) {
  auto tb = l2_bed(1);
  EXPECT_EQ(tb->link_count(), 2u);
  EXPECT_EQ(tb->link_ends(0), (std::pair<int, int>{0, 1}));
  EXPECT_EQ(tb->link_ends(1), (std::pair<int, int>{2, 3}));
  EXPECT_EQ(&tb->link_at(0), &tb->link(0, 1));
  EXPECT_EQ(tb->device_ids(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_THROW((void)tb->link_at(2), std::out_of_range);
  EXPECT_THROW((void)tb->link_ends(2), std::out_of_range);
}

// ---------------------------------------------------------------------------
// RPC checker
// ---------------------------------------------------------------------------

TEST(RpcChecker, ConservationHoldsThroughALossyRun) {
  const auto spec = mf::FaultSpec::parse("seed=5;loss@wire:p=0.01");
  auto tb = rpc_bed(spec);
  mr::ServerConfig sc;
  sc.workers = 1;
  sc.service = mr::ServerConfig::Service::kExponential;
  sc.service_mean_ps = 3.0 * static_cast<double>(ms::kPsPerUs);
  sc.seed = 7;
  mr::ServerModel server(tb->port("server"), sc);
  server.install_faults(*tb->fault_plane(0), "rpc.s0");
  mr::LatencyRecorder recorder;
  mr::WorkloadConfig wc;
  wc.offered_rps = 60'000.0;
  wc.seed = 42;
  wc.timeout_ps = 5 * ms::kPsPerMs;
  mr::OpenLoopGenerator gen(tb->port("client"), recorder, wc);
  auto check = mh::make_rpc_checker(gen);

  gen.start(0, 40 * ms::kPsPerMs);
  // The law must hold at *every* quiesced instant, mid-run included.
  for (ms::SimTime t = 5 * ms::kPsPerMs; t <= 55 * ms::kPsPerMs; t += 5 * ms::kPsPerMs) {
    tb->run_until(t);
    EXPECT_TRUE(check(tb->now()).ok) << check(tb->now()).detail;
  }
  EXPECT_GT(gen.timed_out(), 0u);  // loss really bit
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

TEST(Watchdog, TripsOnAWedgedShardAndReportsHeartbeats) {
  auto tb = l2_bed(1);
  std::atomic<bool> release{false};
  // The event spins until the watchdog's trip callback releases it — a
  // deliberate stall on the one shard, wall-clock long, virtual-time zero.
  tb->engine().schedule_at(ms::kPsPerMs, [&release] {
    while (!release.load(std::memory_order_acquire)) {}
  });

  mh::WatchdogConfig cfg;
  cfg.poll_ms = 20;
  cfg.budget_ms = 100;
  mh::Watchdog dog(tb->runtime(), cfg);
  std::atomic<std::uint64_t> reported_shards{0};
  dog.set_on_trip([&](const mh::Watchdog::StallReport& report) {
    reported_shards.store(report.heartbeats.size(), std::memory_order_relaxed);
    release.store(true, std::memory_order_release);
  });
  dog.start();
  tb->run_until(2 * ms::kPsPerMs);
  dog.stop();

  EXPECT_EQ(dog.trips(), 1u);
  EXPECT_EQ(reported_shards.load(), tb->shard_count());
}

TEST(Watchdog, StaysQuietOnAHealthyRun) {
  auto tb = l2_bed(2, {}, 2);
  ASSERT_EQ(tb->shard_count(), 2u);
  const auto gens = start_l2_load(*tb, 1.0);
  mh::WatchdogConfig cfg;
  cfg.poll_ms = 20;
  cfg.budget_ms = 30'000;  // far beyond the run's wall clock
  mh::Watchdog dog(tb->runtime(), cfg);
  dog.start();
  tb->run_until(20 * ms::kPsPerMs);
  dog.stop();
  EXPECT_EQ(dog.trips(), 0u);
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(FlightRecorder, RingRetainsTheNewestEntriesPerShard) {
  mh::FlightRecorder rec(/*shards=*/2, /*capacity=*/8);
  for (std::uint64_t i = 0; i < 20; ++i) rec.sink(0)->on_event(i * 10, i);
  EXPECT_EQ(rec.recorded(0), 20u);
  const auto tail = rec.snapshot(0);
  ASSERT_EQ(tail.size(), 8u);
  EXPECT_EQ(tail.front().seq, 12u);  // oldest retained
  EXPECT_EQ(tail.back().seq, 19u);   // newest
  EXPECT_TRUE(rec.snapshot(1).empty());
}

TEST(FlightRecorder, RecordsFaultFiresWithInternedSiteNames) {
  mh::FlightRecorder rec(1, 16);
  rec.intern_site("wire.l1");
  rec.record_fault(0, "wire.l1", mf::FaultKind::kFrameLoss, 42);
  rec.record_fault(0, "nic.never_interned", mf::FaultKind::kRxOverflow, 43);
  const auto tail = rec.snapshot(0);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].kind, mh::FlightRecorder::EntryKind::kFaultFire);
  EXPECT_EQ(rec.site_name(tail[0].site_id), "wire.l1");
  EXPECT_EQ(rec.site_name(tail[1].site_id), "?");
}

TEST(FlightRecorder, DumpEscapesControlCharacters) {
  // Reasons, checker names and details are caller text; a control byte in
  // any of them must leave the dump valid JSON.
  mh::FlightRecorder rec(1, 4);
  const std::vector<mh::Violation> violations{
      {.checker = "bad\rchecker", .detail = "line\r\x01" "end", .when_ps = 7}};
  std::ostringstream os;
  rec.dump_json(os, "why\r\x01now", violations, {0}, nullptr);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"reason\": \"why\\r\\u0001now\""), std::string::npos);
  EXPECT_NE(json.find("\"checker\": \"bad\\rchecker\""), std::string::npos);
  EXPECT_NE(json.find("\"detail\": \"line\\r\\u0001end\""), std::string::npos);
  // The layout's own newlines are the only control bytes left.
  for (const char c : json) {
    if (c == '\n') continue;
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << json;
  }
}

TEST(HealthMonitor, DumpNamesTheFailingCheckerInJson) {
  // Loss probability is high so fault fires land inside the recorder's
  // bounded tail (the dump shows the *last* N entries per shard).
  const auto spec = mf::FaultSpec::parse("seed=3;loss@wire:p=0.05");
  auto tb = l2_bed(1, spec);
  const auto gens = start_l2_load(*tb, 1.0);
  mh::MonitorConfig hc;
  hc.window_ps = ms::kPsPerMs;
  mh::HealthMonitor mon(*tb, hc);
  mon.checkers().add("deliberately.broken",
                     [](ms::SimTime) { return mh::CheckResult::fail("seeded failure"); });
  mon.start(5 * ms::kPsPerMs);
  tb->run_until(5 * ms::kPsPerMs);

  ASSERT_FALSE(mon.violations().empty());
  std::ostringstream os;
  mon.dump(os, "test dump");
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"moongen-flight-recorder-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\": \"test dump\""), std::string::npos);
  EXPECT_NE(json.find("deliberately.broken"), std::string::npos);
  EXPECT_NE(json.find("seeded failure"), std::string::npos);
  // Fault fires made it into the trace with their site names.
  EXPECT_NE(json.find("\"kind\": \"fault\""), std::string::npos);
  EXPECT_NE(json.find("\"site\": \"wire.l"), std::string::npos);
  // The telemetry snapshot rode along.
  EXPECT_NE(json.find("\"telemetry\""), std::string::npos);
}

TEST(HealthMonitor, CheckerGaugeCountsCheckersAddedAfterConstruction) {
  auto tb = l2_bed(1);
  mh::HealthMonitor mon(*tb, {});
  const std::size_t built_in = mon.checkers().checker_count();
  mon.checkers().add("late.one", [](ms::SimTime) { return mh::CheckResult::pass(); });
  mon.checkers().add("late.two", [](ms::SimTime) { return mh::CheckResult::pass(); });
  ASSERT_EQ(mon.checkers().checker_count(), built_in + 2);
  double checkers = -1.0;
  for (const auto& g : tb->snapshot().gauges)
    if (g.name == "health.checkers") checkers = g.value;
  EXPECT_EQ(checkers, static_cast<double>(mon.checkers().checker_count()));
}

TEST(HealthMonitor, CatchesASeededLeakWithinOneWindow) {
  auto tb = l2_bed(1);
  mm::Mempool pool(64);
  std::size_t held = 0;
  mh::MonitorConfig hc;
  hc.window_ps = ms::kPsPerMs;
  mh::HealthMonitor mon(*tb, hc);
  mon.checkers().add("pool.books", mh::make_mempool_checker(pool, [&held] { return held; }));
  mon.start(10 * ms::kPsPerMs);
  // Leak one buffer at 4.5 ms: the 5 ms window tick must flag it.
  tb->schedule_global(4'500 * ms::kPsPerUs, [&pool] { (void)pool.alloc(64); });
  tb->run_until(10 * ms::kPsPerMs);

  ASSERT_FALSE(mon.violations().empty());
  const auto& first = mon.violations().front();
  EXPECT_EQ(first.checker, "pool.books");
  EXPECT_EQ(first.when_ps, 5 * ms::kPsPerMs);  // the very next window boundary
}

// ---------------------------------------------------------------------------
// Observation-only contract
// ---------------------------------------------------------------------------

TEST(HealthMonitor, MonitoredRunIsByteIdenticalToUnmonitored) {
  const auto spec = mf::FaultSpec::parse("seed=7;loss@wire:p=0.003;corrupt@wire.l1:p=0.001");
  const auto run = [&spec](bool with_monitor) {
    auto tb = l2_bed(2, spec, 2);
    const auto gens = start_l2_load(*tb, 2.0);
    std::unique_ptr<mh::HealthMonitor> mon;
    if (with_monitor) {
      mh::MonitorConfig hc;
      hc.window_ps = ms::kPsPerMs;
      mon = std::make_unique<mh::HealthMonitor>(*tb, hc);
      mon->start(30 * ms::kPsPerMs);
    }
    tb->run_until(30 * ms::kPsPerMs);
    if (mon != nullptr) {
      EXPECT_TRUE(mon->violations().empty());
    }
    struct Out {
      std::uint64_t tx, rx, crc, fires, executed0, executed1;
    } o{};
    o.tx = tb->port("gen_tx").stats().tx_packets;
    o.rx = tb->port("sink").stats().rx_packets;
    o.crc = tb->port("dut_in").stats().crc_errors;
    o.fires = tb->fault_fires();
    o.executed0 = tb->runtime().shard(0).executed();
    o.executed1 = tb->runtime().shard(1).executed();
    return std::tuple{o.tx, o.rx, o.crc, o.fires, o.executed0, o.executed1};
  };
  EXPECT_EQ(run(false), run(true));
}

// ---------------------------------------------------------------------------
// Degradation governor
// ---------------------------------------------------------------------------

TEST(DegradationGovernor, EntersAndRecoversWithHysteresis) {
  std::uint64_t pressure = 0;
  std::vector<std::pair<bool, double>> applied;
  mh::GovernorConfig cfg;
  cfg.pressure_threshold = 10;
  cfg.enter_windows = 3;
  cfg.exit_windows = 2;
  cfg.degraded_keep = 0.25;
  mh::DegradationGovernor gov(
      "t", cfg, [&pressure] { return pressure; },
      [&applied](bool on, double keep) { applied.emplace_back(on, keep); });

  gov.tick();  // priming tick: baseline only
  EXPECT_FALSE(gov.active());

  // Two hot windows: not yet (needs 3).
  pressure += 50; gov.tick();
  pressure += 50; gov.tick();
  EXPECT_FALSE(gov.active());
  // Third consecutive hot window enters.
  pressure += 50; gov.tick();
  EXPECT_TRUE(gov.active());
  EXPECT_EQ(gov.enters(), 1u);
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0], (std::pair<bool, double>{true, 0.25}));

  // One cool window is not enough to recover (hysteresis).
  gov.tick();
  EXPECT_TRUE(gov.active());
  // Second cool window recovers and restores keep = 1.0.
  gov.tick();
  EXPECT_FALSE(gov.active());
  EXPECT_EQ(gov.recovers(), 1u);
  ASSERT_EQ(applied.size(), 2u);
  EXPECT_EQ(applied[1], (std::pair<bool, double>{false, 1.0}));

  // A cool window resets a partial hot streak: 2 hot + 1 cool + 2 hot != enter.
  pressure += 50; gov.tick();
  pressure += 50; gov.tick();
  gov.tick();
  pressure += 50; gov.tick();
  pressure += 50; gov.tick();
  EXPECT_FALSE(gov.active());
  pressure += 50; gov.tick();
  EXPECT_TRUE(gov.active());
  EXPECT_EQ(gov.enters(), 2u);
}

TEST(OpenLoopGenerator, KeepFractionShedsDeterministically) {
  auto tb = rpc_bed();
  mr::ServerConfig sc;
  sc.workers = 1;
  sc.service = mr::ServerConfig::Service::kFixed;
  sc.service_mean_ps = 2 * ms::kPsPerUs;
  sc.seed = 7;
  mr::ServerModel server(tb->port("server"), sc);
  mr::LatencyRecorder recorder;
  mr::WorkloadConfig wc;
  wc.offered_rps = 100'000.0;
  wc.arrival = mr::WorkloadConfig::Arrival::kCbr;
  wc.seed = 42;
  mr::OpenLoopGenerator gen(tb->port("client"), recorder, wc);
  gen.set_keep_fraction(0.5);
  gen.start(0, 20 * ms::kPsPerMs);
  tb->run_until(25 * ms::kPsPerMs);
  // CBR at 100 krps for 20 ms: every departure still happens (the arrival
  // process is untouched), and the keep accumulator issues exactly every
  // other one — floor(total / 2), no randomness involved.
  const std::uint64_t total = gen.issued() + gen.shed_departures();
  EXPECT_GE(total, 1999u);
  EXPECT_LE(total, 2001u);
  EXPECT_EQ(gen.issued(), total / 2);
  EXPECT_EQ(gen.matched(), gen.issued());
}

// ---------------------------------------------------------------------------
// Fault-rule validation (satellite: typo'd sites fail fast)
// ---------------------------------------------------------------------------

TEST(FaultValidation, TypoSiteThrowsWithRegisteredSitesListed) {
  const auto spec = mf::FaultSpec::parse("seed=1;loss@wire.l9:p=1");
  auto tb = l2_bed(1, spec);
  try {
    tb->run_until(ms::kPsPerMs);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("loss@wire.l9"), std::string::npos) << msg;
    EXPECT_NE(msg.find("can never fire"), std::string::npos) << msg;
    EXPECT_NE(msg.find("wire.l1"), std::string::npos) << msg;  // the fix, spelled out
  }
}

TEST(FaultValidation, PrefixRulesAndLateInstalledSitesPass) {
  // `stall@rpc` only matches a site installed *after* build() — validation
  // is deferred to the first run_until precisely for this.
  const auto spec = mf::FaultSpec::parse("seed=1;loss@wire:p=0.001;stall@rpc:p=0.01,param=1e8");
  auto tb = rpc_bed(spec);
  mr::ServerConfig sc;
  sc.workers = 1;
  sc.service = mr::ServerConfig::Service::kFixed;
  sc.service_mean_ps = 2 * ms::kPsPerUs;
  sc.seed = 7;
  mr::ServerModel server(tb->port("server"), sc);
  server.install_faults(*tb->fault_plane(0), "rpc.s0");
  EXPECT_NO_THROW(tb->run_until(ms::kPsPerMs));
}

TEST(FaultValidation, ExplicitCallFailsFastBeforeAnyRun) {
  const auto spec = mf::FaultSpec::parse("seed=1;flap@nic.bogus:p=1,param=1e8");
  auto tb = l2_bed(1, spec);
  EXPECT_THROW(tb->validate_fault_rules(), std::invalid_argument);
}

TEST(FaultValidation, StandalonePlaneStillAcceptsAnySiteName) {
  // Validation is a Testbed policy; a hand-wired FaultPlane keeps the old
  // contract (unmatched points are simply disabled).
  mf::FaultPlane plane(mf::FaultSpec::parse("seed=1;loss@anything:p=1"));
  auto point = plane.point(mf::FaultKind::kFrameLoss, "unrelated.site");
  EXPECT_FALSE(point.installed());
  EXPECT_EQ(plane.requested_sites().size(), 1u);
}
