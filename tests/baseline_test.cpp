// Tests for the comparison baselines: the Pktgen-DPDK-style generic
// generator (Section 5.2) and the software-paced rate controllers
// (Section 7.3).
#include <gtest/gtest.h>

#include "baseline/static_generator.hpp"
#include "baseline/sw_paced.hpp"
#include "core/rate_control.hpp"
#include "proto/checksum.hpp"
#include "proto/packet_view.hpp"
#include "sim_testbed.hpp"

namespace mb = moongen::baseline;
namespace mc = moongen::core;
namespace mn = moongen::nic;
namespace ms = moongen::sim;

// ---------------------------------------------------------------------------
// StaticGenerator (fast path)
// ---------------------------------------------------------------------------

TEST(StaticGenerator, CraftsValidUdpPackets) {
  mc::DeviceTable devices;
  auto& tx = devices.config(0, 1, 1);
  auto& rx = devices.config(1, 1, 1);
  tx.connect_to(rx);

  mb::StaticGenConfig cfg;
  cfg.packet_size = 60;
  cfg.src_ip_mode = mb::StaticGenConfig::RangeMode::kRandom;
  cfg.src_ip_count = 256;
  cfg.checksum_offload = false;  // compute in software so we can verify
  mb::StaticGenerator gen(tx, 0, cfg);
  gen.run_packets(256);

  moongen::membuf::BufArray bufs(512);
  const auto n = rx.get_rx_queue(0).recv(bufs);
  ASSERT_GT(n, 0u);
  for (auto* buf : bufs) {
    auto pc = moongen::proto::classify(buf->bytes());
    ASSERT_TRUE(pc.has_value());
    EXPECT_TRUE(pc->is_udp);
    moongen::proto::Ipv4PacketView view{buf->bytes()};
    EXPECT_TRUE(moongen::proto::verify_ipv4_checksum(view.ip()));
    // Source IP within the configured 10.0.0.1/24-ish range.
    const auto src = view.ip().src().value;
    EXPECT_GE(src, 0x0a000001u);
    EXPECT_LT(src, 0x0a000001u + 256u);
  }
  bufs.free_all();
}

TEST(StaticGenerator, IncrementModeSweepsAddresses) {
  mc::DeviceTable devices;
  auto& tx = devices.config(0, 1, 1);
  auto& rx = devices.config(1, 1, 1);
  tx.connect_to(rx);
  mb::StaticGenConfig cfg;
  cfg.src_ip_mode = mb::StaticGenConfig::RangeMode::kIncrement;
  cfg.src_ip_count = 4;
  cfg.checksum_offload = false;
  mb::StaticGenerator gen(tx, 0, cfg);
  gen.run_packets(8);
  moongen::membuf::BufArray bufs(16);
  rx.get_rx_queue(0).recv(bufs);
  ASSERT_EQ(bufs.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    moongen::proto::Ipv4PacketView view{bufs[i]->bytes()};
    EXPECT_EQ(view.ip().src().value, 0x0a000001u + static_cast<std::uint32_t>(i % 4));
  }
  bufs.free_all();
}

TEST(StaticGenerator, SupportsIpv6Tcp) {
  mc::DeviceTable devices;
  auto& tx = devices.config(0, 1, 1);
  auto& rx = devices.config(1, 1, 1);
  tx.connect_to(rx);
  mb::StaticGenConfig cfg;
  cfg.packet_size = 80;
  cfg.l3 = mb::StaticGenConfig::L3::kIpv6;
  cfg.l4 = mb::StaticGenConfig::L4::kTcp;
  cfg.checksum_offload = false;
  mb::StaticGenerator gen(tx, 0, cfg);
  gen.run_packets(4);
  moongen::membuf::BufArray bufs(8);
  rx.get_rx_queue(0).recv(bufs);
  ASSERT_EQ(bufs.size(), 4u);
  for (auto* buf : bufs) {
    auto pc = moongen::proto::classify(buf->bytes());
    ASSERT_TRUE(pc.has_value());
    EXPECT_EQ(pc->ether_type, moongen::proto::EtherType::kIPv6);
    EXPECT_EQ(pc->l4_protocol, moongen::proto::IpProtocol::kTcp);
  }
  bufs.free_all();
}

TEST(StaticGenerator, VlanTagging) {
  mc::DeviceTable devices;
  auto& tx = devices.config(0, 1, 1);
  auto& rx = devices.config(1, 1, 1);
  tx.connect_to(rx);
  mb::StaticGenConfig cfg;
  cfg.packet_size = 64;
  cfg.vlan_enabled = true;
  cfg.vlan_id = 123;
  cfg.checksum_offload = false;
  mb::StaticGenerator gen(tx, 0, cfg);
  gen.run_packets(2);
  moongen::membuf::BufArray bufs(4);
  rx.get_rx_queue(0).recv(bufs);
  ASSERT_EQ(bufs.size(), 2u);
  auto pc = moongen::proto::classify(bufs[0]->bytes());
  ASSERT_TRUE(pc.has_value());
  EXPECT_TRUE(pc->has_vlan);
  bufs.free_all();
}

TEST(StaticGenerator, SizeSweep) {
  mc::DeviceTable devices;
  auto& tx = devices.config(0, 1, 1);
  auto& rx = devices.config(1, 1, 1);
  tx.connect_to(rx);
  mb::StaticGenConfig cfg;
  cfg.size_mode = mb::StaticGenConfig::RangeMode::kIncrement;
  cfg.size_min = 60;
  cfg.size_max = 63;
  cfg.checksum_offload = false;
  mb::StaticGenerator gen(tx, 0, cfg);
  gen.run_packets(8);
  moongen::membuf::BufArray bufs(8);
  rx.get_rx_queue(0).recv(bufs);
  ASSERT_EQ(bufs.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(bufs[i]->length(), 60 + i % 4);
  bufs.free_all();
}

// ---------------------------------------------------------------------------
// Software pacers in the simulation (Section 7.3)
// ---------------------------------------------------------------------------

namespace {

mn::Frame small_frame() {
  mc::UdpTemplateOptions opts;
  opts.frame_size = 60;
  return mc::make_udp_frame(opts);
}

}  // namespace

TEST(SoftwarePacers, PktgenAverageRateIsCorrect) {
  moongen::test::GbeInterArrivalBed bed;
  mb::PktgenLikePacer pacer(bed.events, bed.tx.tx_queue(0), small_frame(), {.mpps = 0.5});
  pacer.start();
  bed.events.run_until(100 * ms::kPsPerMs);
  pacer.stop();
  EXPECT_NEAR(static_cast<double>(bed.rx.stats().rx_packets), 50'000.0, 500.0);
}

TEST(SoftwarePacers, ZsendAverageRateIsCorrect) {
  moongen::test::GbeInterArrivalBed bed;
  mb::ZsendLikePacer pacer(bed.events, bed.tx.tx_queue(0), small_frame(), {.mpps = 0.5});
  pacer.start();
  bed.events.run_until(100 * ms::kPsPerMs);
  pacer.stop();
  EXPECT_NEAR(static_cast<double>(bed.rx.stats().rx_packets), 50'000.0, 500.0);
}

TEST(SoftwarePacers, ZsendProducesFarMoreMicroBursts) {
  // The headline of Table 4: zsend emits a large share of back-to-back
  // packets; the deadline-driven pacer almost none; and hardware rate
  // control (tested in wire_test) is the cleanest.
  double pktgen_bursts, zsend_bursts;
  {
    moongen::test::GbeInterArrivalBed bed;
    mb::PktgenLikePacer pacer(bed.events, bed.tx.tx_queue(0), small_frame(), {.mpps = 0.5});
    pacer.start();
    bed.events.run_until(200 * ms::kPsPerMs);
    pktgen_bursts = bed.recorder.micro_burst_fraction();
  }
  {
    moongen::test::GbeInterArrivalBed bed;
    mb::ZsendLikePacer pacer(bed.events, bed.tx.tx_queue(0), small_frame(), {.mpps = 0.5});
    pacer.start();
    bed.events.run_until(200 * ms::kPsPerMs);
    zsend_bursts = bed.recorder.micro_burst_fraction();
  }
  EXPECT_LT(pktgen_bursts, 0.02);
  EXPECT_GT(zsend_bursts, 0.15);
  EXPECT_GT(zsend_bursts, 10 * pktgen_bursts);
}

TEST(SoftwarePacers, PktgenPrecisionWorseThanHardware) {
  // Software pacing cannot control the DMA fetch timing and suffers
  // deadline misses (Section 7.1), so its inter-arrival spread is wider
  // than hardware rate control's — most visibly in the tails (Table 4:
  // +-512 ns covers 99.8 % for MoonGen but only 94.5 % for Pktgen-DPDK).
  double hw_within_256, sw_within_256, hw_within_512, sw_within_512;
  const ms::SimTime target = 2 * ms::kPsPerUs;
  {
    moongen::test::GbeInterArrivalBed bed;
    auto& q = bed.tx.tx_queue(0);
    q.set_rate_mpps(0.5, 64);
    q.set_refill([] { return small_frame(); });
    bed.events.run_until(200 * ms::kPsPerMs);
    hw_within_256 = bed.recorder.fraction_within(target, 256'000);
    hw_within_512 = bed.recorder.fraction_within(target, 512'000);
  }
  {
    moongen::test::GbeInterArrivalBed bed;
    mb::PktgenLikePacer pacer(bed.events, bed.tx.tx_queue(0), small_frame(), {.mpps = 0.5});
    pacer.start();
    bed.events.run_until(200 * ms::kPsPerMs);
    sw_within_256 = bed.recorder.fraction_within(target, 256'000);
    sw_within_512 = bed.recorder.fraction_within(target, 512'000);
  }
  EXPECT_GT(hw_within_256, 0.99);
  EXPECT_GT(hw_within_256, sw_within_256 + 0.03);
  EXPECT_GT(hw_within_512, sw_within_512 + 0.03);
}
