// Tests for cables, links and the inter-arrival recorder.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "core/rate_control.hpp"
#include "sim_testbed.hpp"
#include "wire/cable.hpp"
#include "wire/link.hpp"
#include "wire/recorder.hpp"

namespace mw = moongen::wire;
namespace mn = moongen::nic;
namespace ms = moongen::sim;
namespace mc = moongen::core;

TEST(Cable, PropagationMatchesTable3Arithmetic) {
  // t = k + l/vp. For the 82599 fiber bed with a 2 m cable the paper
  // measures 320 ns total; the true cable latency sits within one 12.8 ns
  // timer increment above that (the NIC floors its readings).
  const auto cable = mw::fiber_om3(2.0);
  const double total_ps = static_cast<double>(cable.k_ps + cable.propagation_ps());
  EXPECT_GE(total_ps, 320'000.0);
  EXPECT_LT(total_ps, 320'000.0 + 12'800.0);
  // The fitted k of Table 3: 310.7 ns with vp = 0.72 c.
  const double fitted_total_ns = 310.7 + 2.0 / (0.72 * 0.299792458);
  EXPECT_NEAR(fitted_total_ns, 320.0, 0.5);
}

TEST(Cable, CopperPropagationIsSlower) {
  const auto fiber = mw::fiber_om3(50.0);
  const auto copper = mw::cat5e_10gbaset(50.0);
  EXPECT_GT(copper.propagation_ps(), fiber.propagation_ps());
  EXPECT_GT(copper.k_ps, fiber.k_ps);  // 10GBASE-T line code is costly
}

TEST(Link, DeliversWithDeterministicFiberLatency) {
  moongen::test::TenGbeFiberBed bed(10.0);
  moongen::test::CaptureSink dummy;  // keep frames observable on tx side too
  for (int i = 0; i < 10; ++i) bed.a.tx_queue(0).post(mc::make_ptp_ethernet_frame(60));
  bed.events.run();
  EXPECT_EQ(bed.b.stats().rx_packets, 10u);
  EXPECT_EQ(bed.link.frames_carried(), 10u);
}

TEST(Link, TenGBaseTJitterBoundedAndMostlyTight) {
  // The X540 copper PHY introduces per-frame latency variance: >99.5 %
  // within +-6.4 ns of the median, total range up to 64 ns (Section 6.1).
  ms::EventQueue events;
  mn::Port a(events, mn::intel_x540(), 10'000, 31);
  mn::Port b(events, mn::intel_x540(), 10'000, 32);
  mw::Link link(a, b, mw::cat5e_10gbaset(10.0), 33);

  // Back-to-back line-rate frames leave exactly 67.2 ns apart; arrival
  // spacing therefore exposes the per-frame PHY jitter difference.
  b.rx_queue(0).set_ring_capacity(100'000);
  a.tx_queue(0).set_refill([] {
    mc::UdpTemplateOptions opts;
    opts.frame_size = 60;
    return mc::make_udp_frame(opts);
  });
  events.run_until(5 * ms::kPsPerMs);
  std::vector<mn::RxQueueModel::Entry> entries;
  b.rx_queue(0).drain_into(entries);
  ASSERT_GT(entries.size(), 20'000u);
  std::uint64_t tight = 0, total = 0;
  long long worst = 0;
  for (std::size_t i = 1; i < entries.size(); ++i) {
    const auto delta =
        static_cast<std::int64_t>(entries[i].complete_ps - entries[i - 1].complete_ps) - 67'200;
    ++total;
    if (std::llabs(delta) <= 12'800) ++tight;
    worst = std::max(worst, std::llabs(delta));
  }
  // Each frame's jitter is within +-6.4 ns for >99.5 % of frames, so the
  // difference of two is within +-12.8 ns for >99 %.
  EXPECT_GT(static_cast<double>(tight) / static_cast<double>(total), 0.99);
  // The difference of two jitters is bounded by the full +-32 ns range each.
  EXPECT_LE(worst, 64'000);
}

TEST(Recorder, CapturesBackToBackAsBursts) {
  moongen::test::GbeInterArrivalBed bed;
  // Uncontrolled queue -> line rate -> every frame back-to-back.
  bed.tx.tx_queue(0).set_refill([] {
    mc::UdpTemplateOptions opts;
    opts.frame_size = 60;
    return mc::make_udp_frame(opts);
  });
  bed.events.run_until(5 * ms::kPsPerMs);
  ASSERT_GT(bed.recorder.samples(), 1'000u);
  EXPECT_GT(bed.recorder.micro_burst_fraction(), 0.99);
  // Back-to-back 64 B at GbE: 672 ns inter-arrival. The 82580's 64 ns
  // timestamp quantization spreads the exact value over the two adjacent
  // bins (640 and 704 ns).
  EXPECT_GT(bed.recorder.histogram().fraction_between(608'000, 736'000), 0.99);
}

TEST(Recorder, CbrTrafficCentersOnTarget) {
  moongen::test::GbeInterArrivalBed bed;
  auto& q = bed.tx.tx_queue(0);
  q.set_rate_mpps(0.5, 64);
  q.set_refill([] {
    mc::UdpTemplateOptions opts;
    opts.frame_size = 60;
    return mc::make_udp_frame(opts);
  });
  bed.events.run_until(100 * ms::kPsPerMs);
  ASSERT_GT(bed.recorder.samples(), 40'000u);
  // Within +-512 ns of the 2 us target: essentially everything.
  EXPECT_GT(bed.recorder.fraction_within(2'000'000, 512'000), 0.99);
  EXPECT_LT(bed.recorder.micro_burst_fraction(), 0.01);
}
