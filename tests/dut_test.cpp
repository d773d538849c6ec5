// Tests for the device-under-test forwarder model (NAPI + dynamic ITR +
// single-core datapath), validating the mechanisms behind Figures 7/10/11.
#include <gtest/gtest.h>

#include <memory>

#include "core/rate_control.hpp"
#include "testbed/scenario.hpp"
#include "topologies.hpp"

namespace mc = moongen::core;
namespace mn = moongen::nic;
namespace ms = moongen::sim;
namespace mtb = moongen::testbed;
namespace topo = moongen::topologies;

namespace {

/// The generator -> DuT -> sink testbed (the Open vSwitch setup of
/// Sections 7.4 / 8.2 / 8.3) with seeds of its own.
std::unique_ptr<mtb::Testbed> dut_bed() {
  mtb::Scenario s;
  s.telemetry(false);
  topo::forwarder_path(s, {.device_seeds = {81, 82, 83, 84}, .link_seeds = {85, 86}});
  return s.build();
}

mn::Frame load_frame() {
  mc::UdpTemplateOptions opts;
  opts.frame_size = 96;
  opts.ptp_payload = true;
  opts.ptp_message_type = 5;
  return mc::make_udp_frame(opts);
}

}  // namespace

TEST(Forwarder, ForwardsEverythingBelowCapacity) {
  auto tb = dut_bed();
  auto& q = tb->port("gen_tx").tx_queue(0);
  q.set_rate_mpps(0.5, 100);
  auto gen = mc::SimLoadGen::hardware_paced(q, load_frame());
  tb->run_until(20 * ms::kPsPerMs);
  // 0.5 Mpps over 20 ms = 10'000 packets; all must reach the sink.
  EXPECT_NEAR(static_cast<double>(tb->port("sink").stats().rx_packets), 10'000.0, 100.0);
  EXPECT_EQ(tb->port("dut_in").stats().rx_ring_drops, 0u);
}

TEST(Forwarder, SaturatesAroundTwoMpps) {
  auto tb = dut_bed();
  auto& q = tb->port("gen_tx").tx_queue(0);
  q.set_rate_mpps(4.0, 100);  // far above DuT capacity
  auto gen = mc::SimLoadGen::hardware_paced(q, load_frame());
  tb->run_until(50 * ms::kPsPerMs);
  const double mpps = static_cast<double>(tb->forwarder().forwarded()) / 50'000.0;
  EXPECT_NEAR(mpps, 2.0, 0.1);  // the 1650-cycle datapath at 3.3 GHz
  EXPECT_GT(tb->port("dut_in").stats().rx_ring_drops, 0u);  // overload drops
}

TEST(Forwarder, InterruptRateCollapsesUnderMicroBursts) {
  // Figure 7: bursty traffic triggers the interrupt moderation and yields
  // a much lower interrupt rate than smooth traffic of the same rate.
  const double mpps = 0.5;
  std::uint64_t smooth_ints, bursty_ints;
  {
    auto tb = dut_bed();
    auto& q = tb->port("gen_tx").tx_queue(0);
    q.set_rate_mpps(mpps, 100);
    auto gen = mc::SimLoadGen::hardware_paced(q, load_frame());
    tb->run_until(100 * ms::kPsPerMs);
    smooth_ints = tb->forwarder().interrupts();
  }
  {
    auto tb = dut_bed();
    auto& q = tb->port("gen_tx").tx_queue(0);
    // 64-packet micro-bursts at the same average rate (CRC-paced pattern).
    auto gen = mc::SimLoadGen::crc_paced(
        q, load_frame(), std::make_unique<mc::BurstPattern>(mpps, 64, 120, 10'000), 10'000);
    tb->run_until(100 * ms::kPsPerMs);
    bursty_ints = tb->forwarder().interrupts();
  }
  EXPECT_GT(smooth_ints, 3 * bursty_ints);
}

TEST(Forwarder, PollingModeSuppressesInterruptsAtOverload) {
  auto tb = dut_bed();
  auto& q = tb->port("gen_tx").tx_queue(0);
  q.set_rate_mpps(4.0, 100);
  auto gen = mc::SimLoadGen::hardware_paced(q, load_frame());
  tb->run_until(100 * ms::kPsPerMs);
  // At overload NAPI stays in polling mode: interrupt rate is tiny
  // compared to the packet rate.
  EXPECT_LT(tb->forwarder().interrupts(), tb->forwarder().forwarded() / 100);
}

TEST(Forwarder, InternalLatencyBoundedByRingAtOverload) {
  auto tb = dut_bed();
  auto& q = tb->port("gen_tx").tx_queue(0);
  q.set_rate_mpps(4.0, 100);
  auto gen = mc::SimLoadGen::hardware_paced(q, load_frame());
  tb->run_until(100 * ms::kPsPerMs);
  // Ring of 4096 packets at ~0.5 us service: worst-case residence ~2 ms.
  EXPECT_GT(tb->forwarder().internal_latency_ns().max(), 1.5e6);
  EXPECT_LT(tb->forwarder().internal_latency_ns().max(), 3.0e6);
}

TEST(Forwarder, LatencyLowUnderLightLoad) {
  auto tb = dut_bed();
  auto& q = tb->port("gen_tx").tx_queue(0);
  q.set_rate_mpps(0.2, 100);
  auto gen = mc::SimLoadGen::hardware_paced(q, load_frame());
  tb->run_until(50 * ms::kPsPerMs);
  // Interrupt wait + pipeline: tens of microseconds at most.
  EXPECT_LT(tb->forwarder().internal_latency_ns().mean(), 40e3);
  EXPECT_GT(tb->forwarder().internal_latency_ns().mean(), 5e3);
}

TEST(Forwarder, ThroughputIndependentOfPattern) {
  // Section 8.3: the overall achieved throughput is the same regardless of
  // the traffic pattern (CBR vs Poisson) at overload.
  double mpps_cbr, mpps_poisson;
  {
    auto tb = dut_bed();
    auto& q = tb->port("gen_tx").tx_queue(0);
    q.set_rate_mpps(3.0, 100);
    auto gen = mc::SimLoadGen::hardware_paced(q, load_frame());
    tb->run_until(50 * ms::kPsPerMs);
    mpps_cbr = static_cast<double>(tb->forwarder().forwarded()) / 50'000.0;
  }
  {
    auto tb = dut_bed();
    auto& q = tb->port("gen_tx").tx_queue(0);
    auto gen = mc::SimLoadGen::crc_paced(q, load_frame(),
                                         std::make_unique<mc::PoissonPattern>(3.0, 999), 10'000);
    tb->run_until(50 * ms::kPsPerMs);
    mpps_poisson = static_cast<double>(tb->forwarder().forwarded()) / 50'000.0;
  }
  EXPECT_NEAR(mpps_cbr, mpps_poisson, 0.05);
}
