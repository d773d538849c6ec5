// Tests for the multi-tenant virtual-switch DuT: match tables, token-bucket
// shaping, strict-priority + DRR egress, flow labels, frame conservation,
// and the victim-isolation property behind the DDoS scenarios.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string_view>
#include <vector>

#include "core/rate_control.hpp"
#include "dut/vswitch.hpp"
#include "fault/fault.hpp"
#include "health/health.hpp"
#include "nic/chip.hpp"
#include "proto/packet_view.hpp"
#include "testbed/scenario.hpp"
#include "topologies.hpp"
#include "wire/link.hpp"

namespace mc = moongen::core;
namespace md = moongen::dut;
namespace mf = moongen::fault;
namespace mh = moongen::health;
namespace mn = moongen::nic;
namespace mp = moongen::proto;
namespace ms = moongen::sim;
namespace mtb = moongen::testbed;
namespace mw = moongen::wire;
namespace topo = moongen::topologies;

namespace {

/// Generator -> vswitch ingress; two vports, each cabled to its own sink.
/// `out_mbit` below line rate congests the egress side (scheduler tests).
struct VsBed {
  explicit VsBed(md::VSwitchConfig cfg, std::uint64_t out_mbit = 10'000)
      : out0(events, mn::intel_x540(), out_mbit, 93),
        out1(events, mn::intel_x540(), out_mbit, 94),
        sink0(events, mn::intel_x540(), out_mbit, 95),
        sink1(events, mn::intel_x540(), out_mbit, 96),
        vsw(events, vs_in, 0, {&out0, &out1}, std::move(cfg)) {
    gen_tx.set_tx_sink(&to_vs);
    out0.set_tx_sink(&to_sink0);
    out1.set_tx_sink(&to_sink1);
    sink0.rx_queue(0).set_ring_capacity(10'000'000);
    sink1.rx_queue(0).set_ring_capacity(10'000'000);
  }

  void check_conservation() const {
    EXPECT_EQ(vsw.received(), vsw.matched() + vsw.flooded() + vsw.shaped_drops() +
                                  vsw.queue_drops() + vsw.fault_drops());
    EXPECT_EQ(vsw.matched() + vsw.flooded(),
              vsw.emitted() + vsw.egress_ring_drops() + vsw.queued());
  }

  ms::EventQueue events;
  mn::Port gen_tx{events, mn::intel_x540(), 10'000, 91};
  mn::Port vs_in{events, mn::intel_x540(), 10'000, 92};
  mn::Port out0;
  mn::Port out1;
  mn::Port sink0;
  mn::Port sink1;
  mw::Link to_vs{gen_tx, vs_in, mw::cat5e_10gbaset(2.0), 97};
  mw::Link to_sink0{out0, sink0, mw::cat5e_10gbaset(2.0), 98};
  mw::Link to_sink1{out1, sink1, mw::cat5e_10gbaset(2.0), 99};
  md::VSwitch vsw;
};

mn::Frame tagged_frame(std::uint16_t vid, std::uint8_t pcp = 0, std::size_t size = 128,
                       std::uint16_t udp_dst = 42) {
  mc::UdpTemplateOptions opts;
  opts.frame_size = size;
  opts.udp_dst = udp_dst;
  opts.vlan = true;
  opts.vlan_vid = vid;
  opts.vlan_pcp = pcp;
  return mc::make_udp_frame(opts);
}

md::TenantConfig tenant(std::uint16_t vid, int vport, std::uint8_t priority = 0,
                        double rate_mbit = 0.0) {
  md::TenantConfig t;
  t.vid = vid;
  t.vport = vport;
  t.priority = priority;
  t.rate_mbit = rate_mbit;
  return t;
}

}  // namespace

// ---------------------------------------------------------------------------
// Token-bucket conformance (property test)
// ---------------------------------------------------------------------------

TEST(TokenBucket, NeverExceedsRateTimesTimePlusBurst) {
  // Property: over randomized arrival processes, the bytes admitted in
  // [0, t] never exceed rate * t + burst, for every prefix t — checked
  // against an independent accounting of the elapsed virtual time.
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const double rate_mbit = 10.0 + static_cast<double>(rng() % 990);  // 10..1000
    const std::size_t burst = 2'000 + rng() % 30'000;
    md::TokenBucket bucket(rate_mbit, burst);
    const double rate_bytes_per_ps = rate_mbit * 1e6 / 8.0 / 1e12;
    std::uint64_t admitted_bytes = 0;
    ms::SimTime now = 0;
    std::uniform_int_distribution<ms::SimTime> gap(0, 2'000'000);    // 0..2 us
    std::uniform_int_distribution<std::size_t> size(64, 1538);
    for (int i = 0; i < 5'000; ++i) {
      now += gap(rng);
      const std::size_t bytes = size(rng);
      if (bucket.admit(now, bytes)) admitted_bytes += bytes;
      const double bound =
          rate_bytes_per_ps * static_cast<double>(now) + static_cast<double>(burst);
      ASSERT_LE(static_cast<double>(admitted_bytes), bound + 1.0)
          << "trial " << trial << " overran at t=" << now << " ps";
    }
    // The bucket must also do useful work: a long-run saturated arrival
    // process admits at least (rate * t) - one max frame.
    const double floor =
        rate_bytes_per_ps * static_cast<double>(now) - 1538.0;
    EXPECT_GE(static_cast<double>(admitted_bytes) + static_cast<double>(burst), floor)
        << "trial " << trial;
  }
}

TEST(TokenBucket, UnlimitedAdmitsEverything) {
  md::TokenBucket bucket(0.0, 0);
  EXPECT_TRUE(bucket.unlimited());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.admit(0, 1'000'000));
}

TEST(TokenBucket, RefillIsDeterministicFromVirtualTime) {
  // Two buckets fed the identical arrival sequence make identical
  // decisions — no wall-clock, no hidden state.
  md::TokenBucket a(100.0, 5'000);
  md::TokenBucket b(100.0, 5'000);
  std::mt19937_64 rng(11);
  ms::SimTime now = 0;
  for (int i = 0; i < 10'000; ++i) {
    now += rng() % 1'000'000;
    const std::size_t bytes = 64 + rng() % 1474;
    ASSERT_EQ(a.admit(now, bytes), b.admit(now, bytes)) << "diverged at step " << i;
  }
}

// ---------------------------------------------------------------------------
// Match tables and conservation
// ---------------------------------------------------------------------------

TEST(VSwitch, VidTableSwitchesTenantsToTheirVports) {
  md::VSwitchConfig cfg;
  cfg.tenants = {tenant(10, 0), tenant(20, 1)};
  VsBed bed(cfg);
  auto& q = bed.gen_tx.tx_queue(0);
  for (int i = 0; i < 400; ++i) q.post(tagged_frame(i % 2 == 0 ? 10 : 20));
  bed.events.run();
  EXPECT_EQ(bed.vsw.received(), 400u);
  EXPECT_EQ(bed.vsw.matched(), 400u);
  EXPECT_EQ(bed.vsw.flooded(), 0u);
  EXPECT_EQ(bed.sink0.stats().rx_packets, 200u);
  EXPECT_EQ(bed.sink1.stats().rx_packets, 200u);
  EXPECT_EQ(bed.vsw.tenant_counters(0).matched, 200u);
  EXPECT_EQ(bed.vsw.tenant_counters(1).matched, 200u);
  bed.check_conservation();
}

TEST(VSwitch, UnmatchedFramesFloodToTheFloodVport) {
  md::VSwitchConfig cfg;
  cfg.tenants = {tenant(10, 0)};
  cfg.flood_vport = 1;
  VsBed bed(cfg);
  auto& q = bed.gen_tx.tx_queue(0);
  for (int i = 0; i < 100; ++i) q.post(tagged_frame(999));  // unknown VID
  bed.events.run();
  EXPECT_EQ(bed.vsw.matched(), 0u);
  EXPECT_EQ(bed.vsw.flooded(), 100u);
  EXPECT_EQ(bed.sink1.stats().rx_packets, 100u);
  // The flood queue's books live at index tenant_count().
  EXPECT_EQ(bed.vsw.tenant_counters(bed.vsw.tenant_count()).matched, 100u);
  bed.check_conservation();
}

TEST(VSwitch, FiveTupleRuleWinsOverVidTable) {
  md::VSwitchConfig cfg;
  cfg.tenants = {tenant(10, 0), tenant(0, 1)};  // tenant 1: five-tuple only
  VsBed bed(cfg);
  // make_udp_frame defaults: 10.0.0.1 -> 10.1.0.1, UDP 1234 -> opts.udp_dst.
  md::FiveTupleKey key;
  key.src_ip = 0x0A000001;
  key.dst_ip = 0x0A010001;
  key.src_port = 1234;
  key.dst_port = 43;
  key.protocol = 17;
  bed.vsw.add_flow(key, 1);
  auto& q = bed.gen_tx.tx_queue(0);
  for (int i = 0; i < 100; ++i) q.post(tagged_frame(10, 0, 128, 43));  // matches both
  for (int i = 0; i < 100; ++i) q.post(tagged_frame(10, 0, 128, 42));  // VID only
  bed.events.run();
  EXPECT_EQ(bed.vsw.matched(), 200u);
  EXPECT_EQ(bed.sink1.stats().rx_packets, 100u);  // five-tuple rule won
  EXPECT_EQ(bed.sink0.stats().rx_packets, 100u);
  bed.check_conservation();
}

TEST(VSwitch, FiveTupleTableRejectsOverfill) {
  md::VSwitchConfig cfg;
  cfg.tenants = {tenant(10, 0)};
  cfg.five_tuple_capacity = 4;
  VsBed bed(cfg);
  md::FiveTupleKey key;
  key.protocol = 17;
  std::size_t added = 0;
  try {
    for (std::uint32_t i = 0; i < 100; ++i) {
      key.src_ip = i + 1;
      bed.vsw.add_flow(key, 0);
      ++added;
    }
    FAIL() << "table accepted 100 rules at capacity 4";
  } catch (const std::length_error&) {
    EXPECT_GE(added, 4u);  // at least the nominal capacity fits
    EXPECT_LT(added, 100u);
  }
}

// ---------------------------------------------------------------------------
// Shaping
// ---------------------------------------------------------------------------

TEST(VSwitch, TokenBucketShapesTenantToConfiguredRate) {
  md::VSwitchConfig cfg;
  cfg.tenants = {tenant(10, 0, 0, 100.0)};  // 100 Mbit/s of wire bytes
  VsBed bed(cfg);
  auto& q = bed.gen_tx.tx_queue(0);
  q.set_rate_wire_mbit(1'000.0);  // offer 10x the shaped rate
  auto gen = mc::SimLoadGen::hardware_paced(q, tagged_frame(10));
  const double seconds = 0.2;
  bed.events.run_until(static_cast<ms::SimTime>(seconds * 1e12));
  const auto books = bed.vsw.tenant_counters(0);
  const double emitted_mbit =
      static_cast<double>(books.emitted_wire_bytes) * 8.0 / 1e6 / seconds;
  EXPECT_NEAR(emitted_mbit, 100.0, 2.0);  // within 2% incl. startup burst
  EXPECT_GT(books.shaped_drops, 0u);
  bed.check_conservation();
}

// ---------------------------------------------------------------------------
// Egress scheduling
// ---------------------------------------------------------------------------

TEST(VSwitch, StrictPriorityStarvesLowClassUnderCongestion) {
  md::VSwitchConfig cfg;
  cfg.tenants = {tenant(10, 0, /*priority=*/0), tenant(20, 0, /*priority=*/7)};
  VsBed bed(cfg, /*out_mbit=*/1'000);  // 1G vport, 10G ingress
  auto& q = bed.gen_tx.tx_queue(0);
  q.set_rate_wire_mbit(2'000.0);  // 1G per tenant offered, 1G egress total
  auto gen = mc::SimLoadGen::hardware_paced(q, tagged_frame(10, 0));
  std::vector<mn::Frame> templates{tagged_frame(10, 0), tagged_frame(20, 5)};
  gen->set_templates(std::move(templates));
  bed.events.run_until(100 * ms::kPsPerMs);
  const auto high = bed.vsw.tenant_counters(0);
  const auto low = bed.vsw.tenant_counters(1);
  // The high class gets essentially its whole offered load; the low class
  // only leftovers (and its ring overflows).
  EXPECT_GT(high.emitted, 4 * low.emitted);
  EXPECT_GT(low.queue_drops, 0u);
  EXPECT_EQ(high.queue_drops, 0u);
  bed.check_conservation();
}

TEST(VSwitch, DrrSharesClassBandwidthByQuantum) {
  md::TenantConfig heavy = tenant(10, 0, 0);
  heavy.quantum_bytes = 3'200;
  md::TenantConfig light = tenant(20, 0, 0);
  light.quantum_bytes = 1'600;
  md::VSwitchConfig cfg;
  cfg.tenants = {heavy, light};
  VsBed bed(cfg, /*out_mbit=*/1'000);
  auto& q = bed.gen_tx.tx_queue(0);
  q.set_rate_wire_mbit(4'000.0);  // both queues permanently backlogged
  auto gen = mc::SimLoadGen::hardware_paced(q, tagged_frame(10));
  gen->set_templates({tagged_frame(10), tagged_frame(20)});
  bed.events.run_until(100 * ms::kPsPerMs);
  const auto a = bed.vsw.tenant_counters(0);
  const auto b = bed.vsw.tenant_counters(1);
  ASSERT_GT(b.emitted_wire_bytes, 0u);
  const double ratio = static_cast<double>(a.emitted_wire_bytes) /
                       static_cast<double>(b.emitted_wire_bytes);
  EXPECT_NEAR(ratio, 2.0, 0.1);  // 3200:1600 quanta -> 2:1 service
  bed.check_conservation();
}

// ---------------------------------------------------------------------------
// Egress rings and flow labels
// ---------------------------------------------------------------------------

namespace {

/// UDP destination port of a received frame (0 when it does not parse).
std::uint16_t udp_dst_of(const mn::Frame& frame) {
  const auto& bytes = *frame.data;
  const auto cls = mp::classify({bytes.data(), bytes.size()});
  if (!cls.has_value() || cls->l4_offset == 0 || bytes.size() < cls->l4_offset + 4) return 0;
  return static_cast<std::uint16_t>(bytes[cls->l4_offset + 2] << 8 | bytes[cls->l4_offset + 3]);
}

}  // namespace

// Ring slots are allocated as the ring fills, yet the capacity is exactly
// queue_frames and order is FIFO. A 10 Mbit/s vport drains one frame per
// ~120 us, so each burst below queues at once. Burst one leaves one frame
// in a 4-slot ring with its head at slot 2; burst two wraps around slot 3
// to 0, grows the ring to 8 slots and then overflows it.
TEST(VSwitch, EgressRingGrowsToQueueFramesInFifoOrder) {
  md::TenantConfig t = tenant(10, 0);
  t.queue_frames = 8;
  md::VSwitchConfig cfg;
  cfg.tenants = {t};
  VsBed bed(cfg, /*out_mbit=*/10);
  auto& q = bed.gen_tx.tx_queue(0);
  std::uint16_t next_dst = 1;
  for (int i = 0; i < 4; ++i) q.post(tagged_frame(10, 0, 128, next_dst++));
  while (bed.vsw.tenant_counters(0).queued != 1)
    bed.events.run_until(bed.events.now() + ms::kPsPerUs);
  EXPECT_EQ(bed.vsw.tenant_counters(0).emitted, 3u);
  for (int i = 0; i < 16; ++i) q.post(tagged_frame(10, 0, 128, next_dst++));
  bed.events.run_until(bed.events.now() + 20 * ms::kPsPerUs);
  // Frames 5..11 join frame 4 in the ring; 12..20 find it full.
  const auto full = bed.vsw.tenant_counters(0);
  EXPECT_EQ(full.emitted, 3u);
  EXPECT_EQ(full.queued, 8u);
  EXPECT_EQ(full.matched, 11u);
  EXPECT_EQ(full.queue_drops, 9u);
  bed.events.run();
  const auto rx = bed.sink0.rx_queue(0).drain();
  ASSERT_EQ(rx.size(), 11u);
  for (std::size_t i = 0; i < rx.size(); ++i) EXPECT_EQ(udp_dst_of(rx[i].frame), i + 1);
  bed.check_conservation();
}

TEST(VSwitch, FlowLabelStampedOnForwardedFrames) {
  md::TenantConfig t = tenant(10, 0);
  t.flow = 42;
  md::VSwitchConfig cfg;
  cfg.tenants = {t};
  VsBed bed(cfg);
  auto& q = bed.gen_tx.tx_queue(0);
  for (int i = 0; i < 5; ++i) q.post(tagged_frame(10));
  bed.events.run();
  const auto rx = bed.sink0.rx_queue(0).drain();
  ASSERT_EQ(rx.size(), 5u);
  for (const auto& e : rx) EXPECT_EQ(e.frame.flow, 42u);
}

// ---------------------------------------------------------------------------
// Fault plane
// ---------------------------------------------------------------------------

TEST(VSwitch, ConservationHoldsUnderDropAndStallFaults) {
  md::VSwitchConfig cfg;
  cfg.tenants = {tenant(10, 0), tenant(20, 1, 0, 50.0)};
  auto spec = mf::FaultSpec::parse("loss@vswitch.drop:p=0.05;stall@vswitch.stall:p=0.001");
  VsBed bed(cfg);
  mf::FaultPlane plane(spec, &bed.events);
  bed.vsw.install_faults(plane, "vswitch");
  auto& q = bed.gen_tx.tx_queue(0);
  q.set_rate_wire_mbit(2'000.0);
  auto gen = mc::SimLoadGen::hardware_paced(q, tagged_frame(10));
  gen->set_templates({tagged_frame(10), tagged_frame(20)});
  bed.events.run_until(100 * ms::kPsPerMs);
  EXPECT_GT(bed.vsw.fault_drops(), 0u);
  EXPECT_GT(bed.vsw.received(), 0u);
  bed.check_conservation();
  // Faulted drops must agree with the plane's own fire books.
  EXPECT_EQ(bed.vsw.fault_drops(), plane.fires_at("vswitch.drop"));
}

// ---------------------------------------------------------------------------
// Victim isolation (regression pin) via the Scenario + RTT-plane path
// ---------------------------------------------------------------------------

namespace {

/// Seeds of the one-vport beds below: gen, vs_in, vport0 and sink0, then
/// their two links.
const topo::Placement kSeeds{.device_seeds = {1, 2, 3, 4}, .link_seeds = {5, 6}};

/// gen -> vs_in => VSwitch => vport0 -> sink0, all at 10 GbE.
std::unique_ptr<mtb::Testbed> one_vport_bed(const md::VSwitchConfig& cfg,
                                            std::string_view faults = "") {
  mtb::Scenario s;
  s.seed(1).faults(faults);
  topo::vswitch_fanout(s, kSeeds, {{}}, cfg);
  return s.build();
}

/// Victim (vid 10, CBR 100 Mbit) and attacker (vid 20) share one vport.
/// Returns the victim's cumulative p99 RTT in ns from its RTT-plane flow
/// group. `attack_mbit` 0 = idle attacker; `shaped` polices the attacker
/// to 100 Mbit.
std::uint64_t victim_p99_ns(double attack_mbit, bool shaped) {
  md::TenantConfig victim;
  victim.vid = 10;
  victim.vport = 0;
  victim.priority = 0;
  victim.flow = 1;
  md::TenantConfig attacker;
  attacker.vid = 20;
  attacker.vport = 0;
  attacker.priority = 0;
  attacker.flow = 2;
  if (shaped) attacker.rate_mbit = 100.0;
  md::VSwitchConfig cfg;
  cfg.tenants = {victim, attacker};
  mtb::Scenario s;
  s.seed(1).rtt_groups(4);
  topo::vswitch_fanout(s, kSeeds, {{.link_mbit = 1'000}}, cfg);
  auto tb = s.build();
  auto& q0 = tb->port("gen").tx_queue(0);
  q0.set_rate_wire_mbit(100.0);
  auto victim_gen = mc::SimLoadGen::hardware_paced(q0, tagged_frame(10));
  std::unique_ptr<mc::SimLoadGen> attack_gen;
  if (attack_mbit > 0.0) {
    auto& q1 = tb->port("gen").tx_queue(1);
    q1.set_rate_wire_mbit(attack_mbit);
    attack_gen = mc::SimLoadGen::hardware_paced(q1, tagged_frame(20));
  }
  tb->run_until(200 * ms::kPsPerMs);
  return tb->rtt_plane().cumulative_group(1).percentile(99.0);
}

}  // namespace

TEST(VSwitch, ShapingIsolatesVictimFromAttackerFlood) {
  // Regression pin for the DDoS scenarios: with the attacker policed, the
  // victim's p99 under a 8x-overload flood stays within 3x of its
  // attacker-idle p99. Without policing the flood saturates the shared 1G
  // vport and the victim's p99 explodes (sanity-checked too).
  const std::uint64_t idle = victim_p99_ns(0.0, false);
  const std::uint64_t shaped = victim_p99_ns(8'000.0, true);
  const std::uint64_t unshaped = victim_p99_ns(8'000.0, false);
  ASSERT_GT(idle, 0u);
  EXPECT_LE(shaped, 3 * idle) << "idle p99 " << idle << " ns, shaped-attack p99 " << shaped;
  EXPECT_GT(unshaped, 5 * idle) << "unshaped attacker should congest the shared vport";
}

// ---------------------------------------------------------------------------
// Health-plane checker
// ---------------------------------------------------------------------------

TEST(VSwitch, HealthCheckerPassesOnLiveTestbedAndSeesBooks) {
  md::VSwitchConfig cfg;
  cfg.tenants = {tenant(10, 0)};
  auto tb = one_vport_bed(cfg);
  auto check = mh::make_vswitch_checker(*tb);
  auto& q = tb->port("gen").tx_queue(0);
  q.set_rate_wire_mbit(500.0);
  auto gen = mc::SimLoadGen::hardware_paced(q, tagged_frame(10));
  for (int step = 1; step <= 5; ++step) {
    tb->run_until(step * 10 * ms::kPsPerMs);
    const auto r = check(tb->now());
    EXPECT_TRUE(r.ok) << r.detail;
  }
  EXPECT_GT(tb->vswitch().matched(), 0u);
}

// The vswitch's ingress port already counts a stamped frame as seen, which
// ends its stamp; a frame the switch then shapes away or loses to a fault
// must not end it a second time. Pins the RTT plane's stamp conservation
// (in-flight never negative) on a shaped, faulted Scenario testbed.
TEST(VSwitch, RttStampsStayConservedThroughShapingAndDropFaults) {
  md::VSwitchConfig cfg;
  cfg.tenants = {tenant(10, 0), tenant(20, 0, 0, 100.0)};
  auto tb = one_vport_bed(cfg, "seed=7;loss@vswitch.drop:p=0.01");
  auto& q0 = tb->port("gen").tx_queue(0);
  q0.set_rate_wire_mbit(100.0);
  auto victim_gen = mc::SimLoadGen::hardware_paced(q0, tagged_frame(10));
  auto& q1 = tb->port("gen").tx_queue(1);
  q1.set_rate_wire_mbit(1'000.0);
  auto attack_gen = mc::SimLoadGen::hardware_paced(q1, tagged_frame(20));
  auto check = mh::make_rtt_checker(tb->rtt_plane());
  for (int tick = 1; tick <= 20; ++tick) {
    tb->run_until(static_cast<ms::SimTime>(tick) * ms::kPsPerMs);
    const auto r = check(tb->now());
    ASSERT_TRUE(r.ok) << "at " << tick << " ms: " << r.detail;
  }
  EXPECT_GT(tb->vswitch().shaped_drops(), 0u);
  EXPECT_GT(tb->vswitch().fault_drops(), 0u);
  EXPECT_GE(tb->rtt_plane().in_flight(), 0);
}

// A vport whose link stays down fills its 1024-slot TX ring; the switch
// keeps dequeuing at wire pace and the refused frames are egress ring
// drops. They must land in the owning tenant's books as well as the
// switch-wide count, so every tenant's egress identity closes.
TEST(VSwitch, EgressRingDropsAreBookedPerTenant) {
  md::VSwitchConfig cfg;
  cfg.tenants = {tenant(10, 0), tenant(20, 0)};
  auto tb = one_vport_bed(cfg);
  auto check = mh::make_vswitch_checker(*tb);
  tb->port("vport0").set_link_state(false);
  auto& gen = tb->port("gen");
  gen.tx_queue(0).set_rate_wire_mbit(3'000.0);
  gen.tx_queue(1).set_rate_wire_mbit(3'000.0);
  auto gen10 = mc::SimLoadGen::hardware_paced(gen.tx_queue(0), tagged_frame(10));
  auto gen20 = mc::SimLoadGen::hardware_paced(gen.tx_queue(1), tagged_frame(20));
  for (int step = 1; step <= 4; ++step) {
    tb->run_until(static_cast<ms::SimTime>(step) * ms::kPsPerMs);
    const auto r = check(tb->now());
    EXPECT_TRUE(r.ok) << r.detail;
  }
  const auto& vs = tb->vswitch();
  ASSERT_GT(vs.egress_ring_drops(), 0u);
  std::uint64_t drops = 0;
  for (std::size_t k = 0; k <= vs.tenant_count(); ++k) {
    const auto c = vs.tenant_counters(k);
    EXPECT_EQ(c.matched, c.emitted + c.egress_ring_drops + c.queued) << "tenant " << k;
    drops += c.egress_ring_drops;
  }
  EXPECT_EQ(drops, vs.egress_ring_drops());
  EXPECT_GT(vs.tenant_counters(0).egress_ring_drops, 0u);
  EXPECT_GT(vs.tenant_counters(1).egress_ring_drops, 0u);
  // Only the ring's 1024 descriptors plus the 128-frame on-chip FIFO left.
  EXPECT_EQ(vs.emitted(), 1024u + 128u);
  const auto& reg = tb->registry();
  EXPECT_EQ(reg.counter_value("vswitch.egress_ring_drops"), vs.egress_ring_drops());
  EXPECT_EQ(reg.counter_value("vswitch.t0.egress_ring_drops"),
            vs.tenant_counters(0).egress_ring_drops);
  EXPECT_EQ(reg.counter_value("vswitch.t1.egress_ring_drops"),
            vs.tenant_counters(1).egress_ring_drops);
}

// ---------------------------------------------------------------------------
// DRR walk against a member-by-member reference
// ---------------------------------------------------------------------------

namespace {

/// The textbook walk the switch's bitmap walk must reproduce: visit members
/// one by one from the cursor, zero the deficit of every empty one, top up
/// a backlogged one by its quantum until its head frame fits.
struct LinearDrr {
  struct Member {
    std::vector<std::uint32_t> frames;  // wire bytes, FIFO
    std::size_t head = 0;
    std::uint32_t quantum = 0;
    std::uint32_t deficit = 0;
    [[nodiscard]] bool empty() const { return head == frames.size(); }
  };
  std::vector<Member> members;
  std::size_t rr = 0;

  /// The member dequeued from, or SIZE_MAX when every member is empty.
  std::size_t dequeue() {
    if (std::all_of(members.begin(), members.end(), [](const Member& m) { return m.empty(); }))
      return SIZE_MAX;
    for (;;) {
      Member& m = members[rr];
      if (m.empty()) {
        m.deficit = 0;
        rr = (rr + 1) % members.size();
        continue;
      }
      const std::uint32_t bytes = m.frames[m.head];
      if (m.deficit >= bytes) {
        m.deficit -= bytes;
        ++m.head;
        return rr;
      }
      m.deficit += m.quantum;
      rr = (rr + 1) % members.size();
    }
  }
};

/// Reads the switch's books before every event, so it sees each event's
/// enqueue and dequeue (an ingest enqueues, then may dequeue at once).
class DrrObserver : public ms::EventTraceSink {
 public:
  DrrObserver(const md::VSwitch& vs, LinearDrr& ref, std::vector<std::uint32_t> sent_bytes,
              std::vector<std::size_t> sent_member)
      : vs_(vs), ref_(ref), bytes_(std::move(sent_bytes)), member_(std::move(sent_member)),
        matched_(ref.members.size(), 0), emitted_(ref.members.size(), 0) {}

  void on_event(ms::SimTime, std::uint64_t) override {
    if (!testing::Test::HasFatalFailure()) settle();
  }

  void settle() {
    for (std::size_t k = 0; k < ref_.members.size(); ++k) {
      const auto c = vs_.tenant_counters(k);
      for (; matched_[k] < c.matched; ++matched_[k]) {
        ASSERT_LT(enqueued_, bytes_.size());
        ASSERT_EQ(member_[enqueued_], k) << "enqueue " << enqueued_;
        ref_.members[k].frames.push_back(bytes_[enqueued_++]);
      }
    }
    std::size_t dequeued = 0;
    for (std::size_t k = 0; k < ref_.members.size(); ++k) {
      const auto c = vs_.tenant_counters(k);
      for (; emitted_[k] < c.emitted; ++emitted_[k]) {
        ++dequeued;
        ASSERT_EQ(ref_.dequeue(), k) << "dequeue " << dequeues_;
        ++dequeues_;
      }
    }
    if (dequeued == 0) return;
    ASSERT_EQ(dequeued, 1u);
    for (std::size_t k = 0; k < ref_.members.size(); ++k)
      ASSERT_EQ(vs_.deficit(k), ref_.members[k].deficit) << "member " << k << " after dequeue "
                                                         << dequeues_;
  }

  [[nodiscard]] std::size_t dequeues() const { return dequeues_; }

 private:
  const md::VSwitch& vs_;
  LinearDrr& ref_;
  std::vector<std::uint32_t> bytes_;
  std::vector<std::size_t> member_;
  std::vector<std::uint64_t> matched_;
  std::vector<std::uint64_t> emitted_;
  std::size_t enqueued_ = 0;
  std::size_t dequeues_ = 0;
};

}  // namespace

TEST(VSwitchProperty, BitmapDrrWalkMatchesMemberByMemberWalk) {
  // 120 tenants plus the flood queue share the lowest class of one 1 GbE
  // vport; quanta are smaller than one frame, so members go several rounds
  // before a dequeue, and bursty arrivals leave many members empty (and
  // some emptied with credit left). Every dequeue and every deficit after
  // it must equal the member-by-member walk's.
  constexpr std::size_t kTenants = 120;
  std::mt19937_64 rng(2026);
  for (int trial = 0; trial < 3; ++trial) {
    md::VSwitchConfig cfg;
    cfg.flood_quantum_bytes = 37 + static_cast<std::uint32_t>(rng() % 300);
    cfg.flood_queue_frames = 4096;
    LinearDrr ref;
    for (std::size_t i = 0; i < kTenants; ++i) {
      md::TenantConfig t = tenant(static_cast<std::uint16_t>(100 + i), 0,
                                  md::VSwitchConfig::kPriorityClasses - 1);
      t.quantum_bytes = 20 + static_cast<std::uint32_t>(rng() % 400);
      t.queue_frames = 4096;
      cfg.tenants.push_back(t);
      ref.members.push_back({{}, 0, t.quantum_bytes, 0});
    }
    ref.members.push_back({{}, 0, cfg.flood_quantum_bytes, 0});

    ms::EventQueue events;
    mn::Port in(events, mn::intel_x540(), 10'000, 1);
    mn::Port out(events, mn::intel_x540(), 1'000, 2);
    md::VSwitch vs(events, in, 0, {&out}, cfg);

    // Bursts: a few hot tenants at a time, some table misses (flood).
    std::vector<std::uint32_t> bytes;
    std::vector<std::size_t> member;
    ms::SimTime t = 1'000'000;
    for (int burst = 0; burst < 40; ++burst) {
      const std::size_t hot = 1 + rng() % 6;
      std::vector<std::size_t> pick(hot);
      for (auto& p : pick) p = rng() % 4 == 0 ? kTenants : rng() % kTenants;
      const int frames = 5 + static_cast<int>(rng() % 40);
      for (int f = 0; f < frames; ++f) {
        const std::size_t k = pick[rng() % hot];
        const std::size_t size = 64 + rng() % 1455;
        const std::uint16_t vid = k == kTenants ? 4000 : static_cast<std::uint16_t>(100 + k);
        const mn::Frame frame = tagged_frame(vid, 0, size);
        bytes.push_back(static_cast<std::uint32_t>(frame.wire_bytes()));
        member.push_back(k);
        in.deliver_frame(frame, t);
        t += frame.wire_bytes() * in.byte_time_ps();
      }
      t += static_cast<ms::SimTime>(rng() % 400) * 1'000'000;  // idle gap up to 400 us
    }
    DrrObserver obs(vs, ref, bytes, member);
    events.set_trace_sink(&obs);
    events.run();
    obs.settle();
    events.set_trace_sink(nullptr);
    ASSERT_FALSE(testing::Test::HasFatalFailure());
    EXPECT_EQ(obs.dequeues(), bytes.size()) << "trial " << trial;
    EXPECT_EQ(vs.emitted(), bytes.size());
    EXPECT_EQ(vs.flooded() + vs.matched(), bytes.size());
    EXPECT_GT(vs.flooded(), 0u);
  }
}

TEST(VSwitch, DrrVisitsTrackBackloggedMembersNotClassSize) {
  // 2000 idle tenants share a class with two busy ones: the walk jumps
  // between the two, so visits per dequeue stay near one, not near 2000.
  md::VSwitchConfig cfg;
  for (int i = 0; i < 2'000; ++i)
    cfg.tenants.push_back(tenant(static_cast<std::uint16_t>(100 + i), 0));
  VsBed bed(cfg, 1'000);
  auto& q = bed.gen_tx.tx_queue(0);
  for (int i = 0; i < 600; ++i) q.post(tagged_frame(i % 2 == 0 ? 100 : 1999));
  bed.events.run();
  ASSERT_EQ(bed.vsw.emitted(), 600u);
  EXPECT_LE(bed.vsw.drr_visits(), 3u * 600u);
  bed.check_conservation();
}
