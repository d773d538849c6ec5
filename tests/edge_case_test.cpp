// Edge-case and failure-injection tests across modules.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/rate_control.hpp"
#include "core/task.hpp"
#include "core/timestamper.hpp"
#include "membuf/ring.hpp"
#include "nic/chip.hpp"
#include "nic/port.hpp"
#include "sim_testbed.hpp"
#include "stats/counters.hpp"
#include "wire/link.hpp"

namespace mb = moongen::membuf;
namespace mc = moongen::core;
namespace mn = moongen::nic;
namespace ms = moongen::sim;
namespace mw = moongen::wire;
namespace st = moongen::stats;

// ---------------------------------------------------------------------------
// NIC model edges
// ---------------------------------------------------------------------------

TEST(EdgeCases, PortWithoutSinkDiscardsButCounts) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), 10'000, 501);
  mc::UdpTemplateOptions opts;
  opts.frame_size = 60;
  for (int i = 0; i < 10; ++i) port.tx_queue(0).post(mc::make_udp_frame(opts));
  events.run();  // no sink attached: frames vanish after the wire
  EXPECT_EQ(port.stats().tx_packets, 10u);
}

TEST(EdgeCases, FifoCapacityBoundsRefillLookahead) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), 10'000, 502);
  moongen::test::CaptureSink sink;
  port.set_tx_sink(&sink);
  auto& q = port.tx_queue(0);
  q.set_fifo_capacity(2);
  q.set_rate_mpps(0.1, 64);
  int generated = 0;
  q.set_refill([&] {
    ++generated;
    mc::UdpTemplateOptions o;
    o.frame_size = 60;
    return mc::make_udp_frame(o);
  });
  events.run_until(100 * ms::kPsPerUs);  // ~10 us/pkt at 0.1 Mpps -> ~10 sent
  // Lookahead never exceeds the FIFO bound.
  EXPECT_LE(generated, static_cast<int>(sink.frames.size()) + 2);
}

TEST(EdgeCases, ZeroRateMeansUncontrolled) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), 10'000, 503);
  moongen::test::CaptureSink sink;
  port.set_tx_sink(&sink);
  auto& q = port.tx_queue(0);
  q.set_rate_wire_mbit(5'000);
  q.set_rate_wire_mbit(0);  // back to line rate
  mc::UdpTemplateOptions opts;
  opts.frame_size = 60;
  for (int i = 0; i < 100; ++i) q.post(mc::make_udp_frame(opts));
  events.run();
  for (std::size_t i = 1; i < sink.frames.size(); ++i) {
    EXPECT_EQ(sink.frames[i].second - sink.frames[i - 1].second, 67'200u);
  }
}

TEST(EdgeCases, GapFrameBelowHardwareMinimumStillModelled) {
  // make_gap_frame clamps the data length to at least 1 byte; such runts
  // are dropped and counted at the receiver.
  const auto tiny = mn::make_gap_frame(10);
  EXPECT_GE(tiny.data->size(), 1u);
  EXPECT_FALSE(tiny.fcs_valid);
}

// ---------------------------------------------------------------------------
// Timestamper edges
// ---------------------------------------------------------------------------

TEST(EdgeCases, TimestamperStopPreventsFurtherSamples) {
  moongen::test::TenGbeFiberBed bed;
  mc::TimestamperConfig cfg;
  cfg.sample_interval_ps = 10 * ms::kPsPerUs;
  mc::Timestamper ts(bed.events, bed.a, 0, bed.b, mc::make_ptp_ethernet_frame(80), cfg);
  ts.start();
  bed.events.run_until(200 * ms::kPsPerUs);
  ts.stop();
  const auto samples_at_stop = ts.samples();
  bed.events.run_until(2 * ms::kPsPerMs);
  EXPECT_EQ(ts.samples(), samples_at_stop);
}

TEST(EdgeCases, StaleTxStampFromLostProbeDoesNotCorruptNextSample) {
  // First probe is dropped after TX (no link); its TX stamp would go stale.
  // The timestamper clears registers at the next sample, so a later good
  // probe measures correctly.
  ms::EventQueue events;
  mn::Port a(events, mn::intel_82599(), 10'000, 511);
  mn::Port b(events, mn::intel_82599(), 10'000, 512);
  b.ptp_clock() = a.ptp_clock();
  mc::TimestamperConfig cfg;
  cfg.sample_interval_ps = 100 * ms::kPsPerUs;
  cfg.timeout_ps = 500 * ms::kPsPerUs;
  cfg.sync_clocks_each_sample = false;
  mc::Timestamper ts(events, a, 0, b, mc::make_ptp_ethernet_frame(80), cfg);
  ts.start();
  events.run_until(700 * ms::kPsPerUs);  // first sample times out (no link)
  EXPECT_GE(ts.lost(), 1u);
  // Now attach the link; subsequent samples succeed with sane values.
  mw::Link link(a, b, mw::fiber_om3(2.0), 513);
  events.run_until(5 * ms::kPsPerMs);
  ts.stop();
  EXPECT_GT(ts.samples(), 10u);
  EXPECT_NEAR(ts.latency_ns().mean(), 320.0, 15.0);
}

// ---------------------------------------------------------------------------
// Stats / counters edges
// ---------------------------------------------------------------------------

TEST(EdgeCases, CounterWithNullStreamStillAccumulates) {
  std::uint64_t now = 0;
  st::ManualTxCounter ctr("silent", st::Format::kPlain, [&] { return now; }, nullptr);
  now = 2'000'000'000;
  ctr.update_with_size(100, 60);
  ctr.finalize();
  EXPECT_EQ(ctr.total_packets(), 100u);
}

TEST(EdgeCases, CounterHandlesIdleGaps) {
  std::uint64_t now = 0;
  std::ostringstream os;
  st::ManualTxCounter ctr("gappy", st::Format::kCsv, [&] { return now; }, &os);
  ctr.update_with_size(10, 60);
  now = 5'000'000'000;  // 5 idle seconds
  ctr.update_with_size(10, 60);
  ctr.finalize();
  EXPECT_EQ(ctr.total_packets(), 20u);
  // Idle seconds produce zero-rate interval lines, not crashes.
  EXPECT_GE(ctr.mpps_stats().count(), 4u);
}

// ---------------------------------------------------------------------------
// Pipes and rings under adversarial use
// ---------------------------------------------------------------------------

TEST(EdgeCases, PipePushFailsAfterStopWhenFull) {
  mc::reset_run_state();
  mc::Pipe<int> pipe(2);
  EXPECT_TRUE(pipe.push(1));
  EXPECT_TRUE(pipe.push(2));
  mc::request_stop();  // full + stopped: push must not deadlock
  EXPECT_FALSE(pipe.push(3));
  mc::reset_run_state();
}

TEST(EdgeCases, RingPushPopAcrossWrapBoundaryManyTimes) {
  mb::SpscRing<int> ring(4);
  for (int round = 0; round < 1'000; ++round) {
    EXPECT_TRUE(ring.push(round));
    EXPECT_TRUE(ring.push(round + 1));
    int v = 0;
    EXPECT_TRUE(ring.pop(v));
    EXPECT_EQ(v, round);
    EXPECT_TRUE(ring.pop(v));
    EXPECT_EQ(v, round + 1);
  }
  EXPECT_TRUE(ring.empty());
}

// ---------------------------------------------------------------------------
// Gap filler adversarial configurations
// ---------------------------------------------------------------------------

TEST(EdgeCases, GapFillerMinEqualsMax) {
  mc::GapFillerConfig cfg;
  cfg.min_wire_len = 100;
  cfg.max_wire_len = 100;
  mc::CrcGapFiller filler(cfg);
  std::vector<std::size_t> out;
  filler.fill(300, out);
  EXPECT_EQ(out.size(), 3u);
  for (auto piece : out) EXPECT_EQ(piece, 100u);
  // 250 = 2 x 100 + 50 carry.
  mc::CrcGapFiller f2(cfg);
  std::vector<std::size_t> out2;
  f2.fill(250, out2);
  std::size_t total = 0;
  for (auto piece : out2) total += piece;
  EXPECT_EQ(total + f2.carry_bytes(), 250u);
}

TEST(EdgeCases, GapFillerRefillsOneVector) {
  // One vector across calls, as SimLoadGen keeps its pending gaps: each
  // call clears it first, so a carried short gap leaves nothing of the
  // long gap before it, and the buffer is reused rather than reallocated.
  mc::CrcGapFiller filler;  // defaults: 76..1538 wire bytes
  std::vector<std::size_t> out;
  filler.fill(3'000, out);
  EXPECT_EQ(out, (std::vector<std::size_t>{1'538, 1'462}));
  const std::size_t* buffer = out.data();
  filler.fill(40, out);  // under 76 bytes: carried to the next gap
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(filler.carry_bytes(), 40u);
  filler.fill(100, out);  // lengthened by the carry
  EXPECT_EQ(out, (std::vector<std::size_t>{140}));
  EXPECT_EQ(filler.carry_bytes(), 0u);
  EXPECT_EQ(out.data(), buffer);
}

TEST(EdgeCases, CbrPatternSurvivesExtremeRates) {
  // 14.88 Mpps: gaps of ~67.2 ns; accumulation must not drift.
  mc::CbrPattern line_rate(14.88);
  std::uint64_t total = 0;
  for (int i = 0; i < 100'000; ++i) total += line_rate.next_gap_ps();
  EXPECT_NEAR(static_cast<double>(total), 100'000.0 * 1e6 / 14.88, 1e3);
}
