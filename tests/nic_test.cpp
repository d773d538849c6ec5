// Tests for the NIC port model: TX serialization, DMA timing, hardware
// rate control, PTP timestamping, CRC hardware drop, RX rings.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cmath>
#include <deque>
#include <filesystem>
#include <functional>
#include <random>
#include <stdexcept>
#include <string>

#include "capture/pcap.hpp"
#include "core/rate_control.hpp"
#include "nic/chip.hpp"
#include "nic/port.hpp"
#include "nic/throughput_model.hpp"
#include "rpc/codec.hpp"
#include "sim_testbed.hpp"

namespace mn = moongen::nic;
namespace ms = moongen::sim;
namespace mc = moongen::core;
namespace mp = moongen::proto;
namespace mr = moongen::rpc;
namespace cap = moongen::capture;
using moongen::test::CaptureSink;

namespace {

mn::Frame udp_frame(std::size_t size = 60) {
  mc::UdpTemplateOptions opts;
  opts.frame_size = size;
  return mc::make_udp_frame(opts);
}

mn::Frame ptp_udp_frame(std::size_t size = 96, std::uint8_t type = 0) {
  mc::UdpTemplateOptions opts;
  opts.frame_size = size;
  opts.ptp_payload = true;
  opts.ptp_message_type = type;
  return mc::make_udp_frame(opts);
}

/// A UDP PTP event message cut to `size` bytes. make_udp_frame refuses a
/// buffer without room for the PTP header (76 B, an 80 B frame), so a frame
/// below the 80 B minimum of Section 6.4 that the byte rule still matches
/// has to be cut from a larger one.
mn::Frame short_ptp_udp_frame(std::size_t size) {
  auto bytes = *ptp_udp_frame().data;
  bytes.resize(size);
  return mn::make_frame(std::move(bytes));
}

}  // namespace

// ---------------------------------------------------------------------------
// TX path and serialization
// ---------------------------------------------------------------------------

TEST(NicTx, BackToBackFramesAreLineRate) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), 10'000, 1);
  CaptureSink sink;
  port.set_tx_sink(&sink);

  for (int i = 0; i < 100; ++i) port.tx_queue(0).post(udp_frame());
  events.run();

  ASSERT_EQ(sink.frames.size(), 100u);
  // 64 B frame = 84 wire bytes = 67.2 ns at 10 GbE, start to start.
  for (std::size_t i = 1; i < sink.frames.size(); ++i) {
    EXPECT_EQ(sink.frames[i].second - sink.frames[i - 1].second, 67'200u);
  }
  EXPECT_EQ(port.stats().tx_packets, 100u);
  EXPECT_EQ(port.stats().tx_bytes, 100u * 84);
}

TEST(NicTx, TransmissionsAlignToMacClockGrid) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_82599(), 10'000, 2);
  CaptureSink sink;
  port.set_tx_sink(&sink);
  port.tx_queue(0).post(udp_frame());
  events.run();
  ASSERT_EQ(sink.frames.size(), 1u);
  EXPECT_EQ(sink.frames[0].second % port.spec().mac_cycle_ps, 0u);
}

TEST(NicTx, DmaFetchDelaysFirstFrame) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), 10'000, 3);
  CaptureSink sink;
  port.set_tx_sink(&sink);
  port.tx_queue(0).post(udp_frame());
  events.run();
  ASSERT_EQ(sink.frames.size(), 1u);
  // First frame leaves no earlier than the DMA fetch latency and no later
  // than latency + jitter (+ one MAC cycle of alignment).
  EXPECT_GE(sink.frames[0].second, port.dma_timing().latency_ps);
  EXPECT_LE(sink.frames[0].second,
            port.dma_timing().latency_ps + port.dma_timing().jitter_ps + 6'400);
}

TEST(NicTx, RingCapacityIsEnforced) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), 10'000, 4);
  auto& q = port.tx_queue(0);
  std::size_t accepted = 0;
  while (q.post(udp_frame())) ++accepted;
  EXPECT_EQ(accepted, 1024u);  // default descriptor ring size
  EXPECT_EQ(q.ring_free(), 0u);
}

TEST(NicTx, RefillSaturatesLineRate) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), 10'000, 5);
  CaptureSink sink;
  port.set_tx_sink(&sink);
  port.tx_queue(0).set_refill([] { return udp_frame(); });
  events.run_until(ms::kPsPerMs);  // 1 ms
  // Line rate at 10 GbE, 64 B frames: 14.88 Mpps -> 14880 frames per ms.
  EXPECT_NEAR(static_cast<double>(sink.frames.size()), 14'880.0, 20.0);
}

TEST(NicTx, RoundRobinAcrossTwoQueues) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), 10'000, 6);
  CaptureSink sink;
  port.set_tx_sink(&sink);
  // Two queues with distinct frame sizes so we can tell them apart.
  port.tx_queue(0).set_refill([] { return udp_frame(60); });
  port.tx_queue(1).set_refill([] { return udp_frame(124); });
  events.run_until(100 * ms::kPsPerUs);
  std::size_t small = 0, large = 0;
  for (const auto& [frame, t] : sink.frames) {
    (frame.frame_size() == 64 ? small : large) += 1;
  }
  ASSERT_GT(small, 100u);
  ASSERT_GT(large, 100u);
  // Round-robin: equal packet counts within a few frames.
  EXPECT_NEAR(static_cast<double>(small), static_cast<double>(large), 4.0);
}

// ---------------------------------------------------------------------------
// Hardware rate control (Section 7)
// ---------------------------------------------------------------------------

TEST(NicRateControl, AverageRateMatchesConfigured) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), 10'000, 7);
  CaptureSink sink;
  port.set_tx_sink(&sink);
  auto& q = port.tx_queue(0);
  q.set_rate_mpps(1.0, 64);
  q.set_refill([] { return udp_frame(); });
  events.run_until(10 * ms::kPsPerMs);  // 10 ms
  // 1 Mpps for 10 ms = 10000 frames (within noise/startup).
  EXPECT_NEAR(static_cast<double>(sink.frames.size()), 10'000.0, 50.0);
}

TEST(NicRateControl, PacingNoiseIsBounded) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), 10'000, 8);
  CaptureSink sink;
  port.set_tx_sink(&sink);
  auto& q = port.tx_queue(0);
  q.set_rate_mpps(0.5, 64);  // 2 us target gap
  q.set_refill([] { return udp_frame(); });
  events.run_until(20 * ms::kPsPerMs);
  ASSERT_GT(sink.frames.size(), 5'000u);
  // At 10 GbE the internal pacing tick is 6.4 ns; total noise is at most
  // +-4 ticks plus one MAC cycle of alignment.
  const ms::SimTime target = 2 * ms::kPsPerUs;
  for (std::size_t i = 1; i < sink.frames.size(); ++i) {
    const auto gap = static_cast<std::int64_t>(sink.frames[i].second - sink.frames[i - 1].second);
    EXPECT_NEAR(static_cast<double>(gap), static_cast<double>(target), 4 * 6'400.0 + 6'400.0);
  }
}

TEST(NicRateControl, GbePacingTickIsTenTimesCoarser) {
  // Section 7.3: the internal rate-control clock scales with link speed.
  ms::EventQueue events;
  mn::Port p10(events, mn::intel_x540(), 10'000, 9);
  mn::Port p1(events, mn::intel_x540(), 1'000, 10);
  // Indirect check through the chip spec arithmetic.
  EXPECT_EQ(p10.spec().rate_tick_at_max_speed_ps, 6'400u);
  // Verified behaviourally: GbE gaps oscillate by up to ~4*64 ns.
  CaptureSink sink;
  p1.set_tx_sink(&sink);
  auto& q = p1.tx_queue(0);
  q.set_rate_mpps(0.1, 64);
  q.set_refill([] { return udp_frame(); });
  events.run_until(50 * ms::kPsPerMs);
  ASSERT_GT(sink.frames.size(), 1'000u);
  bool saw_offgrid_64 = false;
  for (std::size_t i = 1; i < sink.frames.size(); ++i) {
    const auto gap = static_cast<std::int64_t>(sink.frames[i].second - sink.frames[i - 1].second);
    const auto dev = std::llabs(gap - 10'000'000);
    EXPECT_LE(dev, 4 * 64'000 + 16'000);
    if (dev > 2 * 6'400) saw_offgrid_64 = true;
  }
  EXPECT_TRUE(saw_offgrid_64);  // noise really is on the coarse GbE grid
}

TEST(NicRateControl, UnreliableAboveNineMpps) {
  // Section 7.5: configured rates above ~9 Mpps behave non-linearly.
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), 10'000, 11);
  CaptureSink sink;
  port.set_tx_sink(&sink);
  auto& q = port.tx_queue(0);
  q.set_rate_mpps(12.0, 64);
  q.set_refill([] { return udp_frame(); });
  events.run_until(10 * ms::kPsPerMs);
  const double achieved_mpps = static_cast<double>(sink.frames.size()) / 10'000.0;
  EXPECT_LT(achieved_mpps, 11.0);  // cannot reach the configured rate
  EXPECT_GT(achieved_mpps, 6.0);   // but is not stalled either
}

// ---------------------------------------------------------------------------
// PTP timestamping (Section 6)
// ---------------------------------------------------------------------------

TEST(NicPtp, TxStampLatchedForPtpEthernet) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_82599(), 10'000, 12);
  CaptureSink sink;
  port.set_tx_sink(&sink);
  port.tx_queue(0).post(mc::make_ptp_ethernet_frame(60));
  events.run();
  EXPECT_TRUE(port.read_tx_timestamp().has_value());
  EXPECT_FALSE(port.read_tx_timestamp().has_value());  // read-to-clear
}

TEST(NicPtp, RegisterHoldsOnlyFirstStamp) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_82599(), 10'000, 13);
  CaptureSink sink;
  port.set_tx_sink(&sink);
  port.tx_queue(0).post(mc::make_ptp_ethernet_frame(60));
  port.tx_queue(0).post(mc::make_ptp_ethernet_frame(60));
  events.run();
  const auto first = port.read_tx_timestamp();
  ASSERT_TRUE(first.has_value());
  // The second packet was NOT stamped: the register was occupied
  // (single-packet-in-flight limitation, Section 6.4).
  EXPECT_FALSE(port.read_tx_timestamp().has_value());
}

TEST(NicPtp, NonPtpFramesAreNotStamped) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_82599(), 10'000, 14);
  CaptureSink sink;
  port.set_tx_sink(&sink);
  port.tx_queue(0).post(udp_frame());
  events.run();
  EXPECT_FALSE(port.read_tx_timestamp().has_value());
}

TEST(NicPtp, MessageTypeOutsideMaskIgnored) {
  // MoonGen's background packets set a PTP type outside the filter mask so
  // they are not timestamped but look identical to the DuT (Section 6.4).
  ms::EventQueue events;
  mn::Port port(events, mn::intel_82599(), 10'000, 15);
  CaptureSink sink;
  port.set_tx_sink(&sink);
  port.tx_queue(0).post(ptp_udp_frame(96, /*type=*/5));
  events.run();
  EXPECT_FALSE(port.read_tx_timestamp().has_value());
}

TEST(NicPtp, WrongVersionIgnored) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_82599(), 10'000, 16);
  CaptureSink sink;
  port.set_tx_sink(&sink);
  auto frame = mc::make_ptp_ethernet_frame(60);
  // Corrupt the version nibble.
  auto bytes = *frame.data;
  bytes[15] = 0x01;
  port.tx_queue(0).post(mn::make_frame(std::move(bytes)));
  events.run();
  EXPECT_FALSE(port.read_tx_timestamp().has_value());
}

TEST(NicPtp, UndersizedUdpPtpRefused) {
  // Section 6.4: UDP PTP packets below 80 B are not timestamped; Ethernet
  // PTP has no such limit.
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), 10'000, 17);
  CaptureSink sink;
  port.set_tx_sink(&sink);
  port.tx_queue(0).post(short_ptp_udp_frame(72));  // 76 B frame < 80
  events.run();
  EXPECT_FALSE(port.read_tx_timestamp().has_value());

  port.tx_queue(0).post(ptp_udp_frame(96));  // 100 B frame >= 80
  events.run();
  EXPECT_TRUE(port.read_tx_timestamp().has_value());
}

TEST(NicPtp, RxStampAndCallback) {
  moongen::test::TenGbeFiberBed bed;
  std::uint64_t latched = 0;
  bed.b.set_rx_stamp_callback([&](std::uint64_t v) { latched = v; });
  bed.a.tx_queue(0).post(mc::make_ptp_ethernet_frame(60));
  bed.events.run();
  const auto rx = bed.b.read_rx_timestamp();
  ASSERT_TRUE(rx.has_value());
  EXPECT_EQ(*rx, latched);
  EXPECT_EQ(bed.b.stats().rx_packets, 1u);
}

TEST(NicPtp, RxTimestampAllOn82580) {
  ms::EventQueue events;
  mn::Port tx(events, mn::intel_x540(), 1'000, 18);
  mn::Port rx(events, mn::intel_82580(), 1'000, 19);
  moongen::wire::Link link(tx, rx, moongen::wire::cat5e_gbe(2.0), 20);
  for (int i = 0; i < 5; ++i) tx.tx_queue(0).post(udp_frame());
  events.run();
  const auto entries = rx.rx_queue(0).drain();
  ASSERT_EQ(entries.size(), 5u);
  std::uint64_t prev = 0;
  for (const auto& e : entries) {
    EXPECT_GT(e.hw_timestamp, 0u);  // every packet stamped
    EXPECT_GE(e.hw_timestamp, prev);
    prev = e.hw_timestamp;
  }
}

TEST(NicPtp, EveryFactoryGivesAFrameThePtpClassOfItsBytes) {
  // The TX and RX filters read Frame::ptp instead of parsing the bytes, so
  // every site that makes a frame's bytes must store what the byte rule
  // finds in them. Each row also names the class the rule must find.
  struct Row {
    std::string name;
    mn::Frame frame;
    mn::PtpEvent expected;
  };
  std::vector<Row> rows;
  rows.push_back({"udp", udp_frame(), mn::PtpEvent::kNone});
  for (std::uint8_t type = 0; type < 16; ++type) {
    const bool event = type < 4;  // filter mask 0x0f: the event messages
    rows.push_back({"udp ptp type " + std::to_string(type), ptp_udp_frame(96, type),
                    event ? mn::PtpEvent::kUdp : mn::PtpEvent::kNone});
    rows.push_back({"ethernet ptp type " + std::to_string(type),
                    mc::make_ptp_ethernet_frame(60, type),
                    event ? mn::PtpEvent::kEthernet : mn::PtpEvent::kNone});
  }
  // Undersized UDP PTP is still a UDP event: only the port's size check
  // (Section 6.4) refuses it. A template without room for the PTP header
  // (Ethernet, IPv4 and UDP take 42 B, the header 34, a VLAN tag 4) is
  // refused where it is made.
  rows.push_back({"udp ptp cut to 76 B", short_ptp_udp_frame(72), mn::PtpEvent::kUdp});
  rows.push_back({"udp ptp at its 76 B minimum", ptp_udp_frame(76), mn::PtpEvent::kUdp});
  EXPECT_THROW(ptp_udp_frame(75), std::invalid_argument);
  EXPECT_THROW(ptp_udp_frame(72), std::invalid_argument);
  mc::UdpTemplateOptions vlan;
  vlan.frame_size = 100;
  vlan.vlan = true;
  vlan.vlan_vid = 10;
  rows.push_back({"udp vlan", mc::make_udp_frame(vlan), mn::PtpEvent::kNone});
  vlan.ptp_payload = true;
  vlan.ptp_message_type = 1;
  rows.push_back({"udp ptp vlan", mc::make_udp_frame(vlan), mn::PtpEvent::kUdp});
  vlan.frame_size = 80;
  rows.push_back({"udp ptp vlan at its 80 B minimum", mc::make_udp_frame(vlan),
                  mn::PtpEvent::kUdp});
  vlan.frame_size = 79;
  EXPECT_THROW(mc::make_udp_frame(vlan), std::invalid_argument);
  auto v1 = *mc::make_ptp_ethernet_frame(60).data;
  v1[15] = 0x01;  // version nibble 1
  rows.push_back({"ethernet ptp version 1", mn::make_frame(std::move(v1)), mn::PtpEvent::kNone});
  for (const std::size_t wire : {1, 33, 76, 84, 1538}) {
    rows.push_back({"gap " + std::to_string(wire), mn::make_gap_frame(wire), mn::PtpEvent::kNone});
  }

  // A FramePool frame carries its template's class; write_rpc_fields
  // rewrites only bytes behind the RPC magic, which the rule never reads,
  // even at the PTP event port.
  mr::RpcTemplateOptions rpc;
  rpc.udp_dst = 319;
  mr::FramePool rpc_pool(mr::make_rpc_frame(rpc), 2);
  mr::FramePool ptp_pool(mc::make_ptp_ethernet_frame(96, 1), 2);
  for (std::uint64_t i = 0; i < 3; ++i) {
    auto [rpc_bytes, rpc_frame] = rpc_pool.acquire();
    mr::write_rpc_fields(rpc_bytes, mr::Op::kSet, ~i, ~i, ~i, 0xffff);
    rows.push_back({"rpc pool #" + std::to_string(i), rpc_frame, mn::PtpEvent::kNone});
    auto [ptp_bytes, ptp_frame] = ptp_pool.acquire();
    mr::write_rpc_fields(ptp_bytes, mr::Op::kSet, ~i, ~i, ~i, 0xffff);
    rows.push_back({"ptp pool #" + std::to_string(i), ptp_frame, mn::PtpEvent::kEthernet});
  }

  // Every row through a pcap file and back.
  const std::vector<Row> originals = rows;
  const auto path = std::filesystem::temp_directory_path() /
                    ("moongen_ptp_class_" + std::to_string(::getpid()) + ".pcap");
  {
    cap::PcapWriter writer(path.string());
    for (const auto& r : originals) writer.write(r.frame, 0);
  }
  const auto loaded = cap::load_frames(path.string());
  std::filesystem::remove(path);
  ASSERT_EQ(loaded.size(), originals.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    rows.push_back({"pcap " + originals[i].name, loaded[i], originals[i].expected});
  }

  for (const auto& r : rows) {
    SCOPED_TRACE(r.name);
    EXPECT_EQ(r.frame.ptp, r.expected);
    EXPECT_EQ(mn::ptp_event_of(*r.frame.data), r.expected);
  }
}

// ---------------------------------------------------------------------------
// Hardware CRC drop (Section 8.1)
// ---------------------------------------------------------------------------

TEST(NicRx, InvalidCrcDroppedBeforeQueues) {
  moongen::test::TenGbeFiberBed bed;
  bed.a.tx_queue(0).post(udp_frame());
  bed.a.tx_queue(0).post(mn::make_gap_frame(200));
  bed.a.tx_queue(0).post(udp_frame());
  bed.events.run();
  EXPECT_EQ(bed.b.stats().rx_packets, 2u);
  EXPECT_EQ(bed.b.stats().crc_errors, 1u);
  EXPECT_EQ(bed.b.rx_queue(0).pending(), 2u);
}

TEST(NicRx, RuntFramesCountAsErrors) {
  moongen::test::TenGbeFiberBed bed;
  bed.a.tx_queue(0).post(mn::make_gap_frame(40));  // 40 wire bytes -> runt
  bed.events.run();
  EXPECT_EQ(bed.b.stats().rx_packets, 0u);
  EXPECT_EQ(bed.b.stats().crc_errors, 1u);
}

TEST(NicRx, RingOverflowDrops) {
  moongen::test::TenGbeFiberBed bed;
  bed.b.rx_queue(0).set_ring_capacity(16);
  for (int i = 0; i < 32; ++i) bed.a.tx_queue(0).post(udp_frame());
  bed.events.run();
  EXPECT_EQ(bed.b.rx_queue(0).pending(), 16u);
  EXPECT_EQ(bed.b.stats().rx_ring_drops, 16u);
}

// ---------------------------------------------------------------------------
// Throughput model (Figures 2-4 arithmetic)
// ---------------------------------------------------------------------------

TEST(ThroughputModel, LineRates) {
  EXPECT_NEAR(mn::line_rate_pps(10'000, 64), 14.88e6, 0.01e6);
  EXPECT_NEAR(mn::line_rate_pps(1'000, 64), 1.488e6, 0.001e6);
  EXPECT_NEAR(mn::line_rate_pps(40'000, 64), 59.52e6, 0.01e6);
}

TEST(ThroughputModel, CpuBoundBelowLineRate) {
  mn::ThroughputQuery q;
  q.cycles_per_packet = 200;
  q.cpu_hz = 1.2e9;
  q.cores = 1;
  const auto r = mn::predict_throughput(q);
  EXPECT_EQ(r.bottleneck, mn::Bottleneck::kCpu);
  EXPECT_NEAR(r.total_pps, 6e6, 1e3);
}

TEST(ThroughputModel, LineRateBoundWithManyCores) {
  mn::ThroughputQuery q;
  q.cycles_per_packet = 200;
  q.cpu_hz = 2.4e9;
  q.cores = 8;
  const auto r = mn::predict_throughput(q);
  EXPECT_EQ(r.bottleneck, mn::Bottleneck::kLineRate);
  EXPECT_NEAR(r.total_pps, 14.88e6, 0.01e6);
}

TEST(ThroughputModel, Xl710SmallPacketCap) {
  // Section 5.4: <=128 B frames cannot reach line rate on the XL710, and
  // more than two cores do not help.
  const auto chip = mn::intel_xl710();
  mn::ThroughputQuery q;
  q.chip = &chip;
  q.link_mbit = 40'000;
  q.frame_size = 64;
  q.cycles_per_packet = 160;
  q.cpu_hz = 2.4e9;
  q.cores = 3;
  const auto r = mn::predict_throughput(q);
  EXPECT_EQ(r.bottleneck, mn::Bottleneck::kNicHardware);
  EXPECT_LT(r.total_pps, mn::line_rate_pps(40'000, 64));

  q.frame_size = 256;
  const auto r2 = mn::predict_throughput(q);
  EXPECT_EQ(r2.bottleneck, mn::Bottleneck::kLineRate);
}

TEST(ThroughputModel, Xl710DualPortCaps) {
  const auto chip = mn::intel_xl710();
  mn::ThroughputQuery q;
  q.chip = &chip;
  q.link_mbit = 40'000;
  q.ports = 2;
  q.frame_size = 1518;
  q.cycles_per_packet = 160;
  q.cpu_hz = 2.4e9;
  q.cores = 6;
  const auto r = mn::predict_throughput(q);
  // Dual-port large packets: capped at ~50 Gbit/s, not 2x40 (Section 5.4).
  EXPECT_NEAR(r.total_wire_mbit, 50'000, 100);
}

// ---------------------------------------------------------------------------
// Batched TX fast path (see DESIGN.md, "Event-engine fast path")
// ---------------------------------------------------------------------------

namespace {

// Runs the CRC-paced generator (valid frames + invalid gap frames on an
// uncontrolled queue — the batched fast path) and captures the wire stream.
std::vector<std::pair<mn::Frame, ms::SimTime>> run_crc_stream(std::size_t batch_frames) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), 10'000, 99);
  port.set_tx_batch_frames(batch_frames);
  CaptureSink sink;
  port.set_tx_sink(&sink);
  auto gen = mc::SimLoadGen::crc_paced(port.tx_queue(0), udp_frame(),
                                       std::make_unique<mc::CbrPattern>(5.0), 10'000);
  events.run_until(2 * ms::kPsPerMs);
  return std::move(sink.frames);
}

/// Forwards every frame to `next` and records its (tx_start, wire bytes);
/// reports `next`'s min_delay_ps as its own.
struct TapSink : mn::FrameSink {
  explicit TapSink(mn::FrameSink& next) : next(next) {}
  mn::FrameSink& next;
  std::vector<std::pair<ms::SimTime, std::uint64_t>> sent;
  void on_frame(mn::Frame frame, ms::SimTime tx_start_ps) override {
    sent.emplace_back(tx_start_ps, frame.wire_bytes());
    next.on_frame(std::move(frame), tx_start_ps);
  }
  [[nodiscard]] ms::SimTime min_delay_ps() const override { return next.min_delay_ps(); }
};

/// What a 64 B stream from one XL710 over a 10GBASE-T cable to another
/// shows: every frame sent and received, and the counters after each
/// run_until target.
struct StreamRun {
  std::vector<std::pair<ms::SimTime, std::uint64_t>> sent;  // (tx_start, wire bytes)
  std::vector<ms::SimTime> received;                        // RX completion times
  // tx packets and bytes, rx packets, link carried, delivered, flaps and
  // flap drops, carrier losses, refill pulls
  std::vector<std::array<std::uint64_t, 9>> counts;
  std::uint64_t events = 0;
};

/// Runs the stream for 200 us, paced at `mpps` (0: uncontrolled), stopping
/// at targets 7.777 us apart, which fall inside batches. `faults` is a
/// FaultSpec for the link's site "wire".
StreamRun run_xl710_stream(std::size_t batch_frames, double mpps, const char* faults = "") {
  ms::EventQueue events;
  mn::Port a(events, mn::intel_xl710(), 40'000, 31);
  mn::Port b(events, mn::intel_xl710(), 40'000, 32);
  moongen::wire::Link link(a, b, moongen::wire::cat5e_10gbaset(2.0), 33);
  moongen::fault::FaultPlane plane(moongen::fault::FaultSpec::parse(faults), &events);
  link.install_faults(plane, "wire");
  a.set_tx_batch_frames(batch_frames);
  TapSink tap(link);
  a.set_tx_sink(&tap);
  StreamRun run;
  b.rx_queue(0).set_store(false);
  b.rx_queue(0).set_callback(
      [&run](const mn::RxQueueModel::Entry& e) { run.received.push_back(e.complete_ps); });
  std::uint64_t pulls = 0;
  const mn::Frame frame = udp_frame();
  auto& q = a.tx_queue(0);
  if (mpps > 0) q.set_rate_mpps(mpps, 64);
  q.set_refill([&pulls, &frame] {
    ++pulls;
    return frame;
  });
  for (ms::SimTime t = 7'777'777; t <= 200 * ms::kPsPerUs; t += 7'777'777) {
    events.run_until(t);
    run.counts.push_back({a.stats().tx_packets, a.stats().tx_bytes, b.stats().rx_packets,
                          link.frames_carried(), link.delivered(), link.flaps(),
                          link.flap_drops(), a.stats().link_down_events, pulls});
  }
  run.sent = std::move(tap.sent);
  run.events = events.executed();
  return run;
}

void expect_same_stream(const StreamRun& unbatched, const StreamRun& batched) {
  EXPECT_LT(batched.events, unbatched.events) << "nothing was batched";
  ASSERT_EQ(batched.sent.size(), unbatched.sent.size());
  for (std::size_t i = 0; i < unbatched.sent.size(); ++i) {
    ASSERT_EQ(batched.sent[i], unbatched.sent[i]) << "frame " << i;
  }
  EXPECT_EQ(batched.received, unbatched.received);
  ASSERT_EQ(batched.counts.size(), unbatched.counts.size());
  for (std::size_t i = 0; i < unbatched.counts.size(); ++i) {
    EXPECT_EQ(batched.counts[i], unbatched.counts[i]) << "after target " << i;
  }
}

}  // namespace

TEST(PortBatching, WireTimestampsMatchUnbatched) {
  const auto unbatched = run_crc_stream(1);   // one event per frame
  const auto batched = run_crc_stream(16);    // default fast path
  ASSERT_GT(unbatched.size(), 10'000u);
  // Batches stop where the run does: both runs handed the sink the same
  // frames at the same times.
  ASSERT_EQ(batched.size(), unbatched.size());
  for (std::size_t i = 0; i < unbatched.size(); ++i) {
    ASSERT_EQ(unbatched[i].second, batched[i].second) << "tx_start diverges at frame " << i;
    ASSERT_EQ(unbatched[i].first.seq, batched[i].first.seq) << "frame order diverges at " << i;
    ASSERT_EQ(unbatched[i].first.fcs_valid, batched[i].first.fcs_valid);
    ASSERT_EQ(unbatched[i].first.wire_bytes(), batched[i].first.wire_bytes());
  }
  // Hardware pacing: reliable at 1 and 5 Mpps, erratic at 40 Mpps (above
  // ~9 Mpps, Section 7.5), so the limiter's draws must also line up.
  for (const double mpps : {1.0, 5.0, 40.0}) {
    SCOPED_TRACE(std::to_string(mpps) + " Mpps");
    const StreamRun paced = run_xl710_stream(16, mpps);
    ASSERT_GT(paced.received.size(), 150u);
    expect_same_stream(run_xl710_stream(1, mpps), paced);
  }
}

TEST(PortBatching, LinkFlapInsideABatchMatchesUnbatched) {
  // Carrier losses of 2 us fire on about one frame in 500. A batch ends at
  // the frame that took the carrier down, as the per-frame path stops there.
  constexpr const char* kFlaps = "seed=5;flap@wire:p=0.002,param=2e6";
  for (const double mpps : {0.0, 40.0}) {
    SCOPED_TRACE(std::to_string(mpps) + " Mpps");
    const StreamRun batched = run_xl710_stream(16, mpps, kFlaps);
    ASSERT_GT(batched.counts.back()[5], 5u) << "too few flaps";
    expect_same_stream(run_xl710_stream(1, mpps, kFlaps), batched);
  }
}

TEST(PortBatching, BatchingCutsEventsPerFrame) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), 10'000, 7);
  port.tx_queue(0).set_refill([] { return udp_frame(); });
  events.run_until(ms::kPsPerMs);
  const double events_per_frame =
      static_cast<double>(events.executed()) / static_cast<double>(port.stats().tx_packets);
  // One completion event per 16-frame batch (plus the lone first frame).
  EXPECT_LT(events_per_frame, 0.2);
  EXPECT_GT(port.stats().tx_packets, 14'000u);

  // Paced at 40 Mpps: per 16-frame batch one completion and one pacing wake
  // instead of 16 of each, next to one receive event per frame.
  const StreamRun paced = run_xl710_stream(16, 40.0);
  const double paced_per_frame =
      static_cast<double>(paced.events) / static_cast<double>(paced.counts.back()[0]);
  EXPECT_LT(paced_per_frame, 1.2);
  EXPECT_GT(paced.counts.back()[0], 5'000u);
}

TEST(PortBatching, DisabledBatchingKeepsPerFrameEvents) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), 10'000, 7);
  port.set_tx_batch_frames(1);
  port.tx_queue(0).set_refill([] { return udp_frame(); });
  events.run_until(ms::kPsPerMs);
  EXPECT_GE(events.executed(), port.stats().tx_packets);
}

// ---------------------------------------------------------------------------
// TX arbitration against a linear-scan reference
// ---------------------------------------------------------------------------

namespace {

/// The TX path of nic::Port with the arbitration it had before the engaged
/// bitmap: every try_transmit walks all queues from the round-robin cursor,
/// and the batching gate checks every other queue. Everything else (DMA
/// fetch and its jitter draws, MAC alignment, pacing and its noise draws,
/// batches and the FIFO they leave to a DMA read, wakes) mirrors Port
/// exactly, so two runs fed the same operations must schedule the same
/// events and transmit the same frames.
class LinearScanPort {
 public:
  /// `sink_min_delay_ps` is what Port's sink reports as its min_delay_ps.
  LinearScanPort(ms::EventQueue& events, mn::ChipSpec spec, std::uint64_t link_mbit,
                 std::uint64_t seed, ms::SimTime sink_min_delay_ps)
      : events_(events),
        sink_min_delay_ps_(sink_min_delay_ps),
        spec_(std::move(spec)),
        byte_time_ps_(ms::byte_time_ps(link_mbit)),
        rate_tick_ps_(spec_.rate_tick_at_max_speed_ps * (spec_.max_link_mbit / link_mbit)),
        rng_(seed),
        queues_(static_cast<std::size_t>(spec_.num_queues)) {}

  std::vector<std::pair<std::uint32_t, ms::SimTime>> picks;  // (queue, tx_start)
  std::uint64_t batches = 0;  // events that sent more than one frame
  std::uint64_t paced_batched_frames = 0;  // frames after the first of a paced batch
  std::uint64_t wakes = 0;

  bool post(int i, mn::Frame frame) {
    Queue& q = queues_[static_cast<std::size_t>(i)];
    if (q.ring.size() >= 1024) return false;
    q.ring.push_back(std::move(frame));
    notify(i);
    return true;
  }
  void set_refill(int i, std::function<mn::Frame()> generator) {
    queues_[static_cast<std::size_t>(i)].refill = std::move(generator);
    notify(i);
  }
  void set_rate_wire_mbit(int i, double mbit) {
    queues_[static_cast<std::size_t>(i)].rate = mbit;
    queues_[static_cast<std::size_t>(i)].pacing_initialized = false;
  }
  void set_fifo_capacity(int i, std::size_t frames) {
    Queue& q = queues_[static_cast<std::size_t>(i)];
    q.fifo_capacity = frames;
    if (q.fifo.size() > frames) q.fifo.resize(frames);  // drops the newest
  }
  void set_link_state(bool up) {
    if (up == link_up_) return;
    link_up_ = up;
    if (up) try_transmit();
  }

 private:
  struct Queue {
    std::deque<mn::Frame> ring;
    std::deque<mn::Frame> fifo;
    std::size_t fifo_capacity = 128;
    bool fetch_scheduled = false;
    double rate = 0.0;
    double next_target = 0;
    ms::SimTime next_allowed = 0;
    bool pacing_initialized = false;
    std::function<mn::Frame()> refill;
    [[nodiscard]] bool engaged() const {
      return !fifo.empty() || !ring.empty() || static_cast<bool>(refill);
    }
  };

  void notify(int i) {
    Queue& q = queues_[static_cast<std::size_t>(i)];
    if (!q.ring.empty()) schedule_fetch(q);
    if (q.refill) try_transmit();
  }
  void schedule_fetch(Queue& q) {
    if (q.fetch_scheduled) return;
    q.fetch_scheduled = true;
    const mn::DmaTiming dma;
    const ms::SimTime jitter = rng_() % dma.jitter_ps;
    events_.schedule_in(dma.latency_ps + jitter,
                        [this, &q, at = events_.now()] { fetch(q, at); });
  }
  void fetch(Queue& q, ms::SimTime scheduled) {
    const mn::DmaTiming dma;
    q.fetch_scheduled = false;
    // The batch in flight still holds the frames a per-frame run pops later.
    std::size_t held = q.fifo.size();
    if (&q == batch_queue_) {
      for (auto it = pops_.rbegin(); it != pops_.rend(); ++it, ++held) {
        if (it->first < events_.now() || (it->first == events_.now() && it->second < scheduled))
          break;
      }
    }
    std::size_t moved = 0;
    while (!q.ring.empty() && held + moved < q.fifo_capacity && moved < dma.fetch_batch) {
      q.fifo.push_back(std::move(q.ring.front()));
      q.ring.pop_front();
      ++moved;
    }
    if (!q.ring.empty()) {
      q.fetch_scheduled = true;
      events_.schedule_in(dma.fetch_interval_ps, [this, &q, at = events_.now()] { fetch(q, at); });
    }
    try_transmit();
  }
  void try_transmit() {
    if (busy_ || !link_up_) return;
    const ms::SimTime now = events_.now();
    const int n = spec_.num_queues;
    ms::SimTime earliest = UINT64_MAX;
    for (int step = 0; step < n; ++step) {
      const int idx = (rr_next_ + step) % n;
      Queue& q = queues_[static_cast<std::size_t>(idx)];
      if (q.fifo.empty() && q.refill) q.fifo.push_back(q.refill());
      if (q.fifo.empty()) continue;
      if (q.next_allowed <= now) {
        rr_next_ = (idx + 1) % n;
        start(q, batch_limit(q));
        return;
      }
      earliest = std::min(earliest, q.next_allowed);
    }
    if (earliest != UINT64_MAX && (!wake_scheduled_ || earliest < scheduled_wake_ps_)) {
      wake_scheduled_ = true;
      scheduled_wake_ps_ = earliest;
      ++wakes;
      events_.schedule_at(earliest, [this, at = earliest] {
        if (wake_scheduled_ && scheduled_wake_ps_ == at) wake_scheduled_ = false;
        try_transmit();
      });
    }
  }
  [[nodiscard]] std::size_t batch_limit(const Queue& q) const {
    for (const Queue& other : queues_) {
      if (&other != &q && other.engaged()) return 1;
    }
    return q.rate <= 0.0 && events_.now() != last_busy_end_ ? 1 : 16;
  }
  void start(Queue& q, std::size_t max_frames) {
    busy_ = true;
    const ms::SimTime now = events_.now();
    ms::SimTime t0 = now == last_busy_end_ ? now : align(now);
    const ms::SimTime reach = q.rate > 0.0 ? t0 + sink_min_delay_ps_ : UINT64_MAX;
    const ms::SimTime target = events_.run_target();
    batch_queue_ = &q;
    pops_.clear();
    ms::SimTime popped = now;
    for (std::size_t frames = 1;; ++frames) {
      const mn::Frame frame = std::move(q.fifo.front());
      q.fifo.pop_front();
      rate_limit(q, frame, t0);
      const ms::SimTime end = t0 + frame.wire_bytes() * byte_time_ps_;
      picks.emplace_back(frame.flow, t0);
      last_busy_end_ = end;
      if (frames == 2 && q.rate <= 0.0) ++batches;
      if (frames >= 2 && q.rate > 0.0) ++paced_batched_frames;
      // Port's batch barrier stays at 0, so it is live at time 0 only.
      if (frames == max_frames || end > target || end >= reach || now == 0) break;
      const bool from_fifo = !q.fifo.empty();
      if (!from_fifo) {
        if (!q.refill) break;
        q.fifo.push_back(q.refill());
      }
      const bool wake = q.next_allowed > end;
      const ms::SimTime next = wake ? align(q.next_allowed) : end;
      if (next + q.fifo.front().wire_bytes() * byte_time_ps_ > target) break;
      const std::pair<ms::SimTime, ms::SimTime> pop =
          wake ? std::pair{q.next_allowed, end} : std::pair{end, popped};
      if (from_fifo) pops_.push_back(pop);
      popped = pop.first;
      t0 = next;
    }
    events_.schedule_at(last_busy_end_, [this] {
      busy_ = false;
      try_transmit();
    });
  }
  void rate_limit(Queue& q, const mn::Frame& frame, ms::SimTime tx_start) {
    if (q.rate <= 0.0) {
      q.next_allowed = 0;
      return;
    }
    double gap = static_cast<double>(frame.wire_bytes()) * 8e6 / q.rate;
    if (1e12 / gap > spec_.rate_control_reliable_pps) {
      std::uniform_real_distribution<double> inflate(1.0, 1.6);
      gap *= inflate(rng_);
    }
    if (!q.pacing_initialized) {
      q.pacing_initialized = true;
      q.next_target = static_cast<double>(tx_start);
    }
    q.next_target += gap;
    std::uniform_int_distribution<int> u(-1, 1);
    const int noise = u(rng_) + u(rng_);
    const double next =
        q.next_target + static_cast<double>(noise) * static_cast<double>(rate_tick_ps_);
    q.next_allowed = next > 0 ? static_cast<ms::SimTime>(next) : 0;
  }
  [[nodiscard]] ms::SimTime align(ms::SimTime t) const {
    return (t + spec_.mac_cycle_ps - 1) / spec_.mac_cycle_ps * spec_.mac_cycle_ps;
  }

  ms::EventQueue& events_;
  ms::SimTime sink_min_delay_ps_;
  mn::ChipSpec spec_;
  ms::SimTime byte_time_ps_;
  ms::SimTime rate_tick_ps_;
  std::mt19937_64 rng_;
  std::vector<Queue> queues_;
  bool busy_ = false;
  bool link_up_ = true;
  ms::SimTime last_busy_end_ = UINT64_MAX;
  bool wake_scheduled_ = false;
  ms::SimTime scheduled_wake_ps_ = 0;
  int rr_next_ = 0;
  const Queue* batch_queue_ = nullptr;
  std::vector<std::pair<ms::SimTime, ms::SimTime>> pops_;  // (pop time, scheduled at)
};

/// Port's picks, in the reference's terms.
struct PickSink : mn::FrameSink {
  explicit PickSink(ms::SimTime min_delay) : min_delay(min_delay) {}
  std::vector<std::pair<std::uint32_t, ms::SimTime>> picks;
  ms::SimTime min_delay;
  void on_frame(mn::Frame frame, ms::SimTime tx_start_ps) override {
    picks.emplace_back(frame.flow, tx_start_ps);
  }
  [[nodiscard]] ms::SimTime min_delay_ps() const override { return min_delay; }
};

/// Every executed event's (time, sequence number): equal logs mean both
/// models scheduled the same events, wakes included, in the same order.
struct EventLog : ms::EventTraceSink {
  std::vector<std::pair<ms::SimTime, std::uint64_t>> events;
  void on_event(ms::SimTime time_ps, std::uint64_t seq) override {
    events.emplace_back(time_ps, seq);
  }
};

mn::Frame queue_frame(std::uint32_t queue, std::size_t size) {
  mn::Frame f = udp_frame(size);
  f.flow = queue;
  return f;
}

}  // namespace

TEST(PortArbiterProperty, EngagedBitmapMatchesLinearScanOnXl710) {
  // Random operations on a 384-queue XL710 at 40 GbE: descriptor bursts on
  // many queues, refill sources set and cleared, rates (some above the
  // ~9 Mpps point where pacing turns erratic), link flaps and FIFO shrinks.
  // The bitmap arbiter must pick the same queue at the same tx_start every
  // time and schedule exactly the same events (wakes included) as the
  // linear scan. Each seed runs with a sink that reports no delay (paced
  // frames go one per event) and with one whose 2 us lets paced batches
  // form, and the run stops at targets that cut batches.
  const mn::ChipSpec chip = mn::intel_xl710();
  ASSERT_EQ(chip.num_queues, 384);
  for (const ms::SimTime min_delay : {ms::SimTime{0}, ms::SimTime{2'000'000}})
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("sink min_delay_ps " + std::to_string(min_delay));
    ms::EventQueue port_events;
    ms::EventQueue ref_events;
    mn::Port port(port_events, chip, 40'000, 77 + seed);
    LinearScanPort ref(ref_events, chip, 40'000, 77 + seed, min_delay);
    PickSink sink(min_delay);
    port.set_tx_sink(&sink);
    EventLog port_log;
    EventLog ref_log;
    port_events.set_trace_sink(&port_log);
    ref_events.set_trace_sink(&ref_log);

    std::mt19937_64 rng(seed);
    const auto at = [&](ms::SimTime t, auto&& on_port, auto&& on_ref) {
      port_events.schedule_at(t, [&port, on_port] { on_port(port); });
      ref_events.schedule_at(t, [&ref, on_ref] { on_ref(ref); });
    };
    const auto burst = [&](ms::SimTime t, int q, int n, std::size_t size) {
      at(t, [=](mn::Port& p) {
           for (int i = 0; i < n; ++i) p.tx_queue(q).post(queue_frame(q, size));
         },
         [=](LinearScanPort& r) {
           for (int i = 0; i < n; ++i) r.post(q, queue_frame(q, size));
         });
    };
    // Busy blocks: most operations hit a dozen hot queues around the
    // bitmap's 64-bit word edges, so rate-limited backlogs pile up (wakes);
    // the rest land anywhere. Quiet blocks: bursts on one queue, far apart,
    // so it drains alone (batches); the queue is uncontrolled and paced at
    // half the line rate in turn.
    constexpr std::array<int, 12> kHot = {0, 5, 63, 64, 65, 127, 128, 200, 255, 256, 300, 383};
    for (const int h : kHot) {  // the hot queues start out paced
      const double mbit = static_cast<double>(1 + rng() % 20) * 500.0;
      at(50'000, [=](mn::Port& p) { p.tx_queue(h).set_rate_wire_mbit(mbit); },
         [=](LinearScanPort& r) { r.set_rate_wire_mbit(h, mbit); });
    }
    ms::SimTime t = 100'000;
    int quiet_q = 0;
    for (int op = 0; op < 600; ++op) {
      const bool quiet = (op / 50) % 2 == 1;
      t += rng() % (quiet ? 20'000'000 : 3'000'000);
      const int q = rng() % 4 == 0 ? static_cast<int>(rng() % 384) : kHot[rng() % kHot.size()];
      const auto size = static_cast<std::size_t>(60 + rng() % 1455);
      if (quiet) {
        if (op % 50 == 0) {
          quiet_q = q;
          const double mbit = op / 100 % 2 == 0 ? 0.0 : 20'000.0;
          at(t, [=](mn::Port& p) { p.tx_queue(q).set_rate_wire_mbit(mbit); },
             [=](LinearScanPort& r) { r.set_rate_wire_mbit(q, mbit); });
        }
        burst(t, quiet_q, 1 + static_cast<int>(rng() % 60), size);
        continue;
      }
      switch (rng() % 6) {
        case 0:
        case 1:  // descriptor burst
          burst(t, q, 1 + static_cast<int>(rng() % 60), size);
          break;
        case 2: {  // a refill source for a while, or clearing one that is not there
          if (rng() % 4 == 0) {
            at(t, [=](mn::Port& p) { p.tx_queue(q).set_refill(nullptr); },
               [=](LinearScanPort& r) { r.set_refill(q, nullptr); });
            break;
          }
          const auto gen = [q, size] { return queue_frame(static_cast<std::uint32_t>(q), size); };
          const ms::SimTime on = 1 + rng() % 10'000'000;
          at(t, [=](mn::Port& p) { p.tx_queue(q).set_refill(gen); },
             [=](LinearScanPort& r) { r.set_refill(q, gen); });
          at(t + on, [=](mn::Port& p) { p.tx_queue(q).set_refill(nullptr); },
             [=](LinearScanPort& r) { r.set_refill(q, nullptr); });
          break;
        }
        case 3: {  // pacing: off, a few Mpps, or beyond the reliable range
          const double mpps = std::array<double, 5>{0.0, 0.5, 3.0, 12.0, 25.0}[rng() % 5];
          const double mbit = mpps * static_cast<double>(mp::wire_size(size)) * 8.0;
          at(t, [=](mn::Port& p) { p.tx_queue(q).set_rate_wire_mbit(mbit); },
             [=](LinearScanPort& r) { r.set_rate_wire_mbit(q, mbit); });
          break;
        }
        case 4: {  // link flap
          const ms::SimTime down = 1 + rng() % 5'000'000;
          at(t, [](mn::Port& p) { p.set_link_state(false); },
             [](LinearScanPort& r) { r.set_link_state(false); });
          at(t + down, [](mn::Port& p) { p.set_link_state(true); },
             [](LinearScanPort& r) { r.set_link_state(true); });
          break;
        }
        default: {  // FIFO shrink (drops the newest frames; 0 empties it), later restored
          const auto frames = static_cast<std::size_t>(rng() % 8);
          at(t, [=](mn::Port& p) { p.tx_queue(q).set_fifo_capacity(frames); },
             [=](LinearScanPort& r) { r.set_fifo_capacity(q, frames); });
          at(t + 2'000'000, [=](mn::Port& p) { p.tx_queue(q).set_fifo_capacity(128); },
             [=](LinearScanPort& r) { r.set_fifo_capacity(q, 128); });
          break;
        }
      }
    }
    for (ms::SimTime stop = 99'991'000; stop < t + 3 * ms::kPsPerMs / 2; stop += 99'991'000) {
      port_events.run_until(stop);
      ref_events.run_until(stop);
    }
    port_events.run_until(t + 3 * ms::kPsPerMs / 2);
    ref_events.run_until(t + 3 * ms::kPsPerMs / 2);
    port_events.set_trace_sink(nullptr);
    ref_events.set_trace_sink(nullptr);

    ASSERT_GT(sink.picks.size(), 2'000u) << "seed " << seed;
    EXPECT_GT(ref.batches, 100u) << "seed " << seed;
    if (min_delay == 0) {
      EXPECT_GT(ref.wakes, 100u) << "seed " << seed;
      EXPECT_EQ(ref.paced_batched_frames, 0u) << "seed " << seed;
    } else {
      EXPECT_GT(ref.paced_batched_frames, 1'000u) << "seed " << seed;
    }
    ASSERT_EQ(sink.picks.size(), ref.picks.size()) << "seed " << seed;
    for (std::size_t i = 0; i < sink.picks.size(); ++i) {
      ASSERT_EQ(sink.picks[i], ref.picks[i]) << "seed " << seed << " pick " << i;
    }
    ASSERT_EQ(port_log.events.size(), ref_log.events.size()) << "seed " << seed;
    for (std::size_t i = 0; i < port_log.events.size(); ++i) {
      ASSERT_EQ(port_log.events[i], ref_log.events[i]) << "seed " << seed << " event " << i;
    }
  }
}

TEST(PortArbiter, VisitsTrackEngagedQueuesNotQueueCount) {
  // Two paced generators on an XL710: each arbitration visits the two
  // engaged queues at most, never the 384 the chip has.
  ms::EventQueue events;
  mn::Port port(events, mn::intel_xl710(), 40'000, 5);
  port.tx_queue(3).set_rate_mpps(2.0, 64);
  port.tx_queue(300).set_rate_mpps(2.0, 64);
  port.tx_queue(3).set_refill([] { return udp_frame(); });
  port.tx_queue(300).set_refill([] { return udp_frame(); });
  events.run_until(ms::kPsPerMs);
  const std::uint64_t frames = port.stats().tx_packets;
  ASSERT_GT(frames, 3'000u);
  EXPECT_LE(port.arbiter_visits(), 4 * frames);
  EXPECT_GE(port.arbiter_visits(), frames);
}
