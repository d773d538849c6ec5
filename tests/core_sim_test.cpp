// Tests for the simulation-side core: departure patterns, the CRC gap
// filler (Section 8), SimLoadGen wire behaviour, and the Timestamper
// (Section 6).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/rate_control.hpp"
#include "core/timestamper.hpp"
#include "sim_testbed.hpp"
#include "wire/recorder.hpp"

namespace mc = moongen::core;
namespace mn = moongen::nic;
namespace ms = moongen::sim;
namespace mw = moongen::wire;

// ---------------------------------------------------------------------------
// Departure patterns
// ---------------------------------------------------------------------------

TEST(Patterns, CbrGapsAreExact) {
  mc::CbrPattern cbr(0.5);  // 2 us
  std::uint64_t total = 0;
  for (int i = 0; i < 1000; ++i) total += cbr.next_gap_ps();
  EXPECT_EQ(total, 1000u * 2'000'000u);
}

TEST(Patterns, CbrHandlesNonIntegerGaps) {
  mc::CbrPattern cbr(0.3);  // 3333333.33.. ps
  std::uint64_t total = 0;
  for (int i = 0; i < 3000; ++i) total += cbr.next_gap_ps();
  EXPECT_NEAR(static_cast<double>(total), 3000.0 * 1e6 / 0.3, 2.0);
}

TEST(Patterns, CbrRoundingStaysCenteredOnTheSchedule) {
  // Regression for the truncate-vs-round audit: with round-with-carry the
  // cumulative departure time never strays more than half a picosecond
  // from the ideal schedule. Plain truncation lags by up to a full ps.
  const double ideal = 1e6 / 0.3;  // 3333333.33.. ps
  mc::CbrPattern cbr(0.3);
  double total = 0;
  for (int i = 1; i <= 10'000; ++i) {
    total += static_cast<double>(cbr.next_gap_ps());
    ASSERT_NEAR(total, ideal * i, 0.5 + 1e-6) << "at departure " << i;
  }
}

TEST(Patterns, CbrNeverReturnsNegativeOrOverflowedGaps) {
  mc::CbrPattern cbr(14.88);  // 67204.3 ps: fractional every step
  for (int i = 0; i < 10'000; ++i) {
    const auto gap = cbr.next_gap_ps();
    ASSERT_GE(gap, 67204u);
    ASSERT_LE(gap, 67205u);
  }
}

TEST(Patterns, BurstInterBurstGapIsRoundedNotTruncated) {
  // avg 0.6 Mpps, bursts of 4, 84 wire bytes at 10 GbE: the inter-burst
  // rest is 6465066.67 ps. Truncation would shorten every burst period.
  mc::BurstPattern burst(0.6, 4, 84, 10'000);
  std::uint64_t period = 0;
  for (int i = 0; i < 4; ++i) period += burst.next_gap_ps();
  EXPECT_EQ(period, 3u * 67'200u + 6'465'067u);
}

TEST(Patterns, PoissonMeanMatchesRate) {
  mc::PoissonPattern poisson(1.0, 99);  // mean 1 us
  double total = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) total += static_cast<double>(poisson.next_gap_ps());
  EXPECT_NEAR(total / n, 1e6, 1e4);  // within 1 %
}

TEST(Patterns, PoissonIsMemoryless) {
  // Coefficient of variation of an exponential is 1.
  mc::PoissonPattern poisson(0.5, 7);
  double sum = 0, sum2 = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double g = static_cast<double>(poisson.next_gap_ps());
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.02);
}

TEST(Patterns, BurstPatternAlternates) {
  // 4-packet bursts of 64 B frames at 10 GbE.
  mc::BurstPattern bursts(1.0, 4, 84, 10'000);
  // Three back-to-back gaps (67.2 ns), then one long gap; average 1 Mpps.
  std::uint64_t total = 0;
  for (int burst = 0; burst < 100; ++burst) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(bursts.next_gap_ps(), 67'200u);
      total += 67'200;
    }
    const auto idle = bursts.next_gap_ps();
    EXPECT_GT(idle, 67'200u);
    total += idle;
  }
  EXPECT_NEAR(static_cast<double>(total) / 400.0, 1e6, 10.0);  // 1 us per packet avg
}

// ---------------------------------------------------------------------------
// CRC gap filler (Section 8.1 / 8.4)
// ---------------------------------------------------------------------------

TEST(CrcGapFiller, ZeroGapMeansBackToBack) {
  mc::CrcGapFiller filler;
  std::vector<std::size_t> fillers;
  filler.fill(0, fillers);
  EXPECT_TRUE(fillers.empty());
  EXPECT_EQ(filler.carry_bytes(), 0u);
}

TEST(CrcGapFiller, ShortGapCarriedOver) {
  mc::CrcGapFiller filler;
  std::vector<std::size_t> fillers;
  // 40 bytes < 76 minimum: unrepresentable, carried to the next gap.
  filler.fill(40, fillers);
  EXPECT_TRUE(fillers.empty());
  EXPECT_EQ(filler.carry_bytes(), 40u);
  EXPECT_EQ(filler.skipped_gaps(), 1u);
  // Next gap is lengthened by the carry.
  filler.fill(100, fillers);
  std::size_t total = 0;
  for (auto f : fillers) total += f;
  EXPECT_EQ(total, 140u);
  EXPECT_EQ(filler.carry_bytes(), 0u);
}

TEST(CrcGapFiller, LargeGapSplitsIntoValidSizes) {
  mc::CrcGapFiller filler;
  std::vector<std::size_t> fillers;
  filler.fill(10'000, fillers);
  std::size_t total = 0;
  for (auto f : fillers) {
    EXPECT_GE(f, filler.config().min_wire_len);
    EXPECT_LE(f, filler.config().max_wire_len);
    total += f;
  }
  EXPECT_EQ(total, 10'000u);
}

TEST(CrcGapFiller, PropertySweepConservesBytes) {
  // Property test: for any gap sequence, carry + emitted == requested, and
  // every emitted filler is within [min, max].
  std::mt19937_64 rng(1234);
  mc::CrcGapFiller filler;
  std::vector<std::size_t> fillers;
  std::uint64_t requested = 0, emitted = 0;
  for (int i = 0; i < 100'000; ++i) {
    const std::size_t gap = rng() % 4'000;
    requested += gap;
    filler.fill(gap, fillers);
    for (auto f : fillers) {
      EXPECT_GE(f, filler.config().min_wire_len);
      EXPECT_LE(f, filler.config().max_wire_len);
      emitted += f;
    }
  }
  EXPECT_EQ(requested, emitted + filler.carry_bytes());
}

TEST(CrcGapFiller, EdgeCasesAroundMaxLength) {
  mc::CrcGapFiller filler;
  const auto& cfg = filler.config();
  for (std::size_t gap :
       {cfg.max_wire_len, cfg.max_wire_len + 1, cfg.max_wire_len + cfg.min_wire_len - 1,
        cfg.max_wire_len + cfg.min_wire_len, 2 * cfg.max_wire_len, 3 * cfg.max_wire_len + 7}) {
    mc::CrcGapFiller f;
    std::vector<std::size_t> pieces;
    f.fill(gap, pieces);
    std::size_t total = 0;
    for (auto piece : pieces) {
      EXPECT_GE(piece, cfg.min_wire_len) << "gap=" << gap;
      EXPECT_LE(piece, cfg.max_wire_len) << "gap=" << gap;
      total += piece;
    }
    EXPECT_EQ(total, gap);
  }
}

// ---------------------------------------------------------------------------
// SimLoadGen on the wire
// ---------------------------------------------------------------------------

namespace {

mn::Frame background_frame() {
  mc::UdpTemplateOptions opts;
  opts.frame_size = 96;
  opts.ptp_payload = true;
  opts.ptp_message_type = 5;  // outside the timestamp filter mask
  return mc::make_udp_frame(opts);
}

}  // namespace

TEST(SimLoadGen, CrcPacedCbrProducesExactSpacingOnWire) {
  moongen::test::TenGbeFiberBed bed;
  bed.b.rx_queue(0).set_ring_capacity(1'000'000);
  auto gen = mc::SimLoadGen::crc_paced(bed.a.tx_queue(0), background_frame(),
                                       std::make_unique<mc::CbrPattern>(0.5), 10'000);
  bed.events.run_until(20 * ms::kPsPerMs);

  // Invalid frames never reach the receive queue; valid packets arrive
  // 2 us apart with byte granularity (0.8 ns at 10 GbE).
  const auto entries = bed.b.rx_queue(0).drain();
  ASSERT_GT(entries.size(), 5'000u);
  EXPECT_GT(bed.b.stats().crc_errors, 1'000u);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    const auto delta = static_cast<std::int64_t>(entries[i].complete_ps - entries[i - 1].complete_ps);
    EXPECT_NEAR(static_cast<double>(delta), 2e6, 6'400.0 + 800.0) << "i=" << i;
  }
}

TEST(SimLoadGen, CrcPacedAverageRateIsExact) {
  moongen::test::TenGbeFiberBed bed;
  bed.b.rx_queue(0).set_ring_capacity(1'000'000);
  auto gen = mc::SimLoadGen::crc_paced(bed.a.tx_queue(0), background_frame(),
                                       std::make_unique<mc::CbrPattern>(1.0), 10'000);
  bed.events.run_until(50 * ms::kPsPerMs);
  // 1 Mpps over 50 ms: 50'000 valid packets (up to pipeline slack).
  EXPECT_NEAR(static_cast<double>(bed.b.stats().rx_packets), 50'000.0, 150.0);
}

TEST(SimLoadGen, HardwarePacedKeepsQueueFull) {
  moongen::test::TenGbeFiberBed bed;
  bed.b.rx_queue(0).set_ring_capacity(1'000'000);
  auto& q = bed.a.tx_queue(0);
  q.set_rate_mpps(2.0, 100);
  auto gen = mc::SimLoadGen::hardware_paced(q, background_frame());
  bed.events.run_until(10 * ms::kPsPerMs);
  EXPECT_NEAR(static_cast<double>(bed.b.stats().rx_packets), 20'000.0, 100.0);
  EXPECT_EQ(bed.b.stats().crc_errors, 0u);  // no filler frames in this mode
}

// ---------------------------------------------------------------------------
// Timestamper (Section 6)
// ---------------------------------------------------------------------------

TEST(Timestamper, LoopbackLatencyMatchesCable) {
  moongen::test::TenGbeFiberBed bed(2.0);
  mc::TimestamperConfig cfg;
  cfg.sample_interval_ps = 50 * ms::kPsPerUs;
  mc::Timestamper ts(bed.events, bed.a, 0, bed.b, mc::make_ptp_ethernet_frame(80), cfg);
  ts.start();
  bed.events.run_until(100 * ms::kPsPerMs);
  ts.stop();
  ASSERT_GT(ts.samples(), 1'000u);
  // Expected latency: k + l/vp = ~320 ns (Table 3), quantized to 12.8 ns.
  EXPECT_NEAR(ts.latency_ns().mean(), 320.0, 13.0);
  EXPECT_EQ(ts.lost(), 0u);
}

TEST(Timestamper, SingleSampleInFlight) {
  moongen::test::TenGbeFiberBed bed;
  mc::TimestamperConfig cfg;
  cfg.sample_interval_ps = 10 * ms::kPsPerUs;
  mc::Timestamper ts(bed.events, bed.a, 0, bed.b, mc::make_ptp_ethernet_frame(80), cfg);
  ts.start();
  bed.events.run_until(ms::kPsPerMs);
  ts.stop();
  // samples + lost + discarded == number of probes injected (one may
  // still be in flight at the end of the run); every probe accounted.
  const auto resolved = ts.samples() + ts.lost() + ts.discarded();
  EXPECT_GE(bed.a.stats().tx_packets, resolved);
  EXPECT_LE(bed.a.stats().tx_packets, resolved + 1);
}

TEST(Timestamper, LostPacketsAreCountedNotRecorded) {
  // No link attached: probes vanish; every sample times out.
  ms::EventQueue events;
  mn::Port a(events, mn::intel_82599(), 10'000, 71);
  mn::Port b(events, mn::intel_82599(), 10'000, 72);
  mc::TimestamperConfig cfg;
  cfg.sample_interval_ps = 100 * ms::kPsPerUs;
  cfg.timeout_ps = ms::kPsPerMs;
  mc::Timestamper ts(events, a, 0, b, mc::make_ptp_ethernet_frame(80), cfg);
  ts.start();
  events.run_until(20 * ms::kPsPerMs);
  ts.stop();
  EXPECT_EQ(ts.samples(), 0u);
  EXPECT_GT(ts.lost(), 5u);
}

TEST(Timestamper, HistogramGeometryIsBounded) {
  ms::EventQueue events;
  mn::Port a(events, mn::intel_82599(), 10'000, 71);
  mn::Port b(events, mn::intel_82599(), 10'000, 72);
  // 100 ps bins over the default 5 ms range would be 5*10^7 buckets: the
  // geometry is rejected instead of allocated.
  mc::TimestamperConfig fine;
  fine.hist_bin_ps = 100;
  EXPECT_THROW(mc::Timestamper(events, a, 0, b, mc::make_ptp_ethernet_frame(80), fine),
               std::invalid_argument);
  // The default, 6.4 ns bins up to 5 ms, needs 781,251 buckets: 20 bits.
  mc::Timestamper ts(events, a, 0, b, mc::make_ptp_ethernet_frame(80));
  EXPECT_EQ(ts.histogram().bucket_count(), 781'251u);
  EXPECT_EQ(ts.histogram().config().sub_bucket_bits, 20u);
  EXPECT_EQ(ts.histogram().bucket_width(781'250), 6'400u);
}

TEST(Timestamper, StreamModeSamplesLoadPackets) {
  moongen::test::TenGbeFiberBed bed;
  bed.b.rx_queue(0).set_ring_capacity(1'000'000);
  auto gen = mc::SimLoadGen::crc_paced(bed.a.tx_queue(0), background_frame(),
                                       std::make_unique<mc::CbrPattern>(0.5), 10'000);
  mc::UdpTemplateOptions stamped_opts;
  stamped_opts.frame_size = 96;
  stamped_opts.ptp_payload = true;
  stamped_opts.ptp_message_type = 0;  // timestampable
  mc::TimestamperConfig cfg;
  cfg.sample_interval_ps = 100 * ms::kPsPerUs;
  mc::Timestamper ts(bed.events, bed.a, *gen, mc::make_udp_frame(stamped_opts), bed.b, cfg);
  ts.start();
  bed.events.run_until(50 * ms::kPsPerMs);
  ts.stop();
  ASSERT_GT(ts.samples(), 100u);
  // One-way latency through the fiber: ~320 ns (plus quantization).
  EXPECT_NEAR(ts.latency_ns().mean(), 320.0, 15.0);
}

namespace {

// Runs the stream-mode sampling scenario (a load + Timestamper marking
// frames mid-stream) with a given TX batch size and renders every
// observable outcome — sample counts, the full latency histogram, and the
// receive-side wire statistics — as one string. The load is CRC-paced at
// 0.5 Mpps, or hardware-paced at 0.1 Mpps, where 16 frames span 160 us,
// more than the 100 us sample interval.
std::string stream_sampling_digest(std::size_t batch_frames, bool hardware_paced) {
  moongen::test::TenGbeFiberBed bed;
  bed.a.set_tx_batch_frames(batch_frames);
  bed.b.set_tx_batch_frames(batch_frames);
  bed.b.rx_queue(0).set_ring_capacity(1'000'000);
  std::unique_ptr<mc::SimLoadGen> gen;
  if (hardware_paced) {
    bed.a.tx_queue(0).set_rate_mpps(0.1, 100);
    gen = mc::SimLoadGen::hardware_paced(bed.a.tx_queue(0), background_frame());
  } else {
    gen = mc::SimLoadGen::crc_paced(bed.a.tx_queue(0), background_frame(),
                                    std::make_unique<mc::CbrPattern>(0.5), 10'000);
  }
  mc::UdpTemplateOptions stamped_opts;
  stamped_opts.frame_size = 96;
  stamped_opts.ptp_payload = true;
  stamped_opts.ptp_message_type = 0;  // timestampable
  mc::TimestamperConfig cfg;
  cfg.sample_interval_ps = 100 * ms::kPsPerUs;
  mc::Timestamper ts(bed.events, bed.a, *gen, mc::make_udp_frame(stamped_opts), bed.b, cfg);
  ts.start();
  bed.events.run_until(50 * ms::kPsPerMs);
  ts.stop();
  std::ostringstream os;
  os << "samples=" << ts.samples() << " lost=" << ts.lost()
     << " min=" << ts.latency_ns().min() << " mean=" << ts.latency_ns().mean()
     << " max=" << ts.latency_ns().max() << " rx=" << bed.b.stats().rx_packets
     << " crc=" << bed.b.stats().crc_errors << "\n";
  ts.histogram().print(os, 0.0);
  return os.str();
}

}  // namespace

// Batched TX used to run the refill source up to a batch ahead of the
// wire, so a frame marked by take_sample reached the wire up to one batch
// late and a different packet was sampled. With pull-on-demand refills and
// the Timestamper's batch barrier, batched and unbatched runs sample exactly
// the same packets. A paced batch also ends before its first frame can
// reach the receiver: the sample that frame completes arms the next barrier.
TEST(PortBatching, StreamSamplingIsByteIdenticalToUnbatched) {
  for (const bool hardware_paced : {false, true}) {
    SCOPED_TRACE(hardware_paced ? "hardware-paced" : "CRC-paced");
    const std::string unbatched = stream_sampling_digest(1, hardware_paced);
    const std::string batched = stream_sampling_digest(64, hardware_paced);
    EXPECT_EQ(unbatched, batched);
    // Sanity: the digest describes a run that actually sampled packets.
    EXPECT_NE(unbatched.find("samples="), std::string::npos);
    EXPECT_EQ(unbatched.find("samples=0 "), std::string::npos);
  }
}

TEST(Timestamper, DriftIsAbsorbedByResync) {
  // Clock drift of 35 us/s between the ports (worst case, Section 6.3).
  moongen::test::TenGbeFiberBed bed;
  bed.b.ptp_clock() = ms::PtpClock({.increment_ps = 12'800, .drift_ppb = 35'000}, 123);
  mc::TimestamperConfig cfg;
  cfg.sample_interval_ps = 500 * ms::kPsPerUs;
  mc::Timestamper ts(bed.events, bed.a, 0, bed.b, mc::make_ptp_ethernet_frame(80), cfg);
  ts.start();
  bed.events.run_until(500 * ms::kPsPerMs);  // 0.5 s of drift
  ts.stop();
  ASSERT_GT(ts.samples(), 500u);
  // Without resync the clocks would drift apart by ~17.5 us over the run;
  // with per-sample resync the mean stays at the cable latency.
  EXPECT_NEAR(ts.latency_ns().mean(), 320.0, 25.0);
}
