// Parameterized property tests: invariants swept across configurations
// (TEST_P / INSTANTIATE_TEST_SUITE_P).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <type_traits>
#include <vector>

#include "baseline/static_generator.hpp"
#include "core/rate_control.hpp"
#include "membuf/ring.hpp"
#include "nic/chip.hpp"
#include "nic/port.hpp"
#include "proto/checksum.hpp"
#include "proto/crc32.hpp"
#include "proto/packet_view.hpp"
#include "sim/clock_sync.hpp"
#include "sim_testbed.hpp"
#include "stats/mt19937_64.hpp"
#include "telemetry/log_linear_histogram.hpp"
#include "wire/link.hpp"
#include "wire/recorder.hpp"

namespace mb = moongen::membuf;
namespace mc = moongen::core;
namespace mn = moongen::nic;
namespace mp = moongen::proto;
namespace ms = moongen::sim;
namespace mt = moongen::telemetry;
namespace mw = moongen::wire;

// ---------------------------------------------------------------------------
// CRC gap filler: byte conservation under arbitrary configurations
// ---------------------------------------------------------------------------

struct GapFillerParam {
  std::size_t min_wire;
  std::size_t max_wire;
};

class GapFillerProperty : public ::testing::TestWithParam<GapFillerParam> {};

TEST_P(GapFillerProperty, ConservesBytesAndRespectsBounds) {
  const auto param = GetParam();
  mc::GapFillerConfig cfg;
  cfg.min_wire_len = param.min_wire;
  cfg.max_wire_len = param.max_wire;
  mc::CrcGapFiller filler(cfg);
  std::mt19937_64 rng(param.min_wire * 31 + param.max_wire);
  std::vector<std::size_t> pieces;
  std::uint64_t requested = 0, emitted = 0;
  for (int i = 0; i < 20'000; ++i) {
    const std::size_t gap = rng() % (3 * param.max_wire);
    requested += gap;
    filler.fill(gap, pieces);
    for (const auto piece : pieces) {
      EXPECT_GE(piece, param.min_wire);
      EXPECT_LE(piece, param.max_wire);
      emitted += piece;
    }
    EXPECT_LT(filler.carry_bytes(), param.min_wire);  // carry stays small
  }
  EXPECT_EQ(requested, emitted + filler.carry_bytes());
}

INSTANTIATE_TEST_SUITE_P(Configs, GapFillerProperty,
                         ::testing::Values(GapFillerParam{33, 1538}, GapFillerParam{76, 1538},
                                           GapFillerParam{76, 500}, GapFillerParam{100, 200},
                                           GapFillerParam{33, 80}),
                         [](const auto& info) {
                           return "min" + std::to_string(info.param.min_wire) + "_max" +
                                  std::to_string(info.param.max_wire);
                         });

// ---------------------------------------------------------------------------
// Hardware rate limiter: long-run average accuracy across rates and speeds
// ---------------------------------------------------------------------------

struct RateParam {
  double mpps;
  std::uint64_t link_mbit;
};

class RateAccuracy : public ::testing::TestWithParam<RateParam> {};

TEST_P(RateAccuracy, AverageWithinOnePercent) {
  const auto param = GetParam();
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), param.link_mbit, 999);
  moongen::test::CaptureSink sink;
  port.set_tx_sink(&sink);
  auto& q = port.tx_queue(0);
  q.set_rate_mpps(param.mpps, 64);
  q.set_refill([] {
    mc::UdpTemplateOptions opts;
    opts.frame_size = 60;
    return mc::make_udp_frame(opts);
  });
  const ms::SimTime duration = 50 * ms::kPsPerMs;
  events.run_until(duration);
  const double achieved =
      static_cast<double>(sink.frames.size()) / ms::to_seconds(duration) / 1e6;
  EXPECT_NEAR(achieved, param.mpps, param.mpps * 0.01);
}

INSTANTIATE_TEST_SUITE_P(RatesAndSpeeds, RateAccuracy,
                         ::testing::Values(RateParam{0.1, 1'000}, RateParam{0.5, 1'000},
                                           RateParam{1.0, 1'000}, RateParam{0.5, 10'000},
                                           RateParam{2.0, 10'000}, RateParam{5.0, 10'000},
                                           RateParam{8.0, 10'000}),
                         [](const auto& info) {
                           return std::to_string(static_cast<int>(info.param.mpps * 10)) +
                                  "x100kpps_" + std::to_string(info.param.link_mbit) + "mbit";
                         });

// ---------------------------------------------------------------------------
// Checksum offload emulation == full software checksum, across sizes
// ---------------------------------------------------------------------------

class ChecksumEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChecksumEquivalence, UdpOffloadSplitMatchesSoftware) {
  const std::size_t size = GetParam();
  std::mt19937_64 rng(size);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> frame(size, 0);
    mp::UdpPacketView view{{frame.data(), size}};
    mp::UdpFillOptions opts;
    opts.packet_length = size;
    opts.ip_src = mp::IPv4Address{static_cast<std::uint32_t>(rng())};
    opts.ip_dst = mp::IPv4Address{static_cast<std::uint32_t>(rng())};
    opts.udp_src = static_cast<std::uint16_t>(rng());
    opts.udp_dst = static_cast<std::uint16_t>(rng());
    view.fill(opts);
    for (auto& b : view.udp_payload()) b = static_cast<std::uint8_t>(rng());

    // Software truth.
    const std::uint16_t software = mp::udp_checksum_ipv4(view.ip(), view.l4_bytes());

    // Offload split: store the folded pseudo-header sum in the checksum
    // field (what the driver does), then finish over the segment (what the
    // NIC does).
    std::uint32_t pseudo = mp::ipv4_pseudo_header_sum(
        view.ip(), static_cast<std::uint16_t>(view.l4_bytes().size()));
    while (pseudo >> 16) pseudo = (pseudo & 0xffff) + (pseudo >> 16);
    view.udp().checksum_be = 0;
    std::uint32_t sum = pseudo;
    sum = mp::checksum_partial(view.l4_bytes(), sum);
    std::uint16_t hardware = mp::checksum_finish(sum);
    if (hardware == 0) hardware = 0xffff;
    EXPECT_EQ(hardware, software) << "size " << size << " trial " << trial;
  }
}

TEST_P(ChecksumEquivalence, Ipv6UdpChecksumVerifies) {
  const std::size_t size = std::max<std::size_t>(GetParam(), 62);
  std::vector<std::uint8_t> frame(size, 0);
  mp::Udp6PacketView view{{frame.data(), size}};
  view.fill(size, mp::MacAddress::from_uint64(1), mp::MacAddress::from_uint64(2),
            mp::IPv6Address::parse("2001:db8::1").value(),
            mp::IPv6Address::parse("2001:db8::2").value(), 1000, 2000);
  const auto l4 = std::span<std::uint8_t>{frame.data() + 54, size - 54};
  view.udp().checksum_be = mp::udp_checksum_ipv6(view.ip6(), l4);
  // Verifying: pseudo-header + full segment folds to zero.
  std::uint32_t sum = mp::ipv6_pseudo_header_sum(
      view.ip6(), static_cast<std::uint32_t>(l4.size()),
      static_cast<std::uint8_t>(mp::IpProtocol::kUdp));
  sum = mp::checksum_partial(l4, sum);
  EXPECT_EQ(mp::checksum_finish(sum), 0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChecksumEquivalence,
                         ::testing::Values(60u, 61u, 64u, 96u, 124u, 512u, 1514u),
                         [](const auto& info) { return "b" + std::to_string(info.param); });

// ---------------------------------------------------------------------------
// CRC32: table-driven implementation vs bitwise reference
// ---------------------------------------------------------------------------

class Crc32Reference : public ::testing::TestWithParam<std::size_t> {};

namespace {

std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int i = 0; i < 8; ++i) crc = (crc & 1) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
  }
  return ~crc;
}

}  // namespace

TEST_P(Crc32Reference, MatchesBitwise) {
  std::mt19937_64 rng(GetParam());
  std::vector<std::uint8_t> data(GetParam());
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  EXPECT_EQ(mp::crc32(data), crc32_bitwise(data));
}

INSTANTIATE_TEST_SUITE_P(Sizes, Crc32Reference,
                         ::testing::Values(1u, 13u, 60u, 64u, 333u, 1518u, 9000u),
                         [](const auto& info) { return "n" + std::to_string(info.param); });

// ---------------------------------------------------------------------------
// Histogram percentiles vs exact order statistics
// ---------------------------------------------------------------------------

class HistogramPercentiles : public ::testing::TestWithParam<int> {};

TEST_P(HistogramPercentiles, WithinOneBinOfExact) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<std::uint64_t> samples;
  const int dist = GetParam();
  for (int i = 0; i < 50'000; ++i) {
    std::uint64_t v;
    if (dist == 0) {
      v = rng() % 1'000'000;  // uniform
    } else if (dist == 1) {
      std::exponential_distribution<double> exp_dist(1e-5);
      v = static_cast<std::uint64_t>(exp_dist(rng));
    } else {
      v = (rng() % 2 == 0) ? 100'000 + rng() % 1'000 : 900'000 + rng() % 1'000;  // bimodal
    }
    samples.push_back(std::min<std::uint64_t>(v, 1'999'999));
  }
  const std::uint64_t bin = 1'000;
  mt::LogLinearHistogram hist(mt::HistogramConfig::linear(bin, 2'000'000));
  for (auto v : samples) hist.record(v);
  std::sort(samples.begin(), samples.end());
  for (double p : {1.0, 25.0, 50.0, 75.0, 99.0}) {
    const auto exact =
        samples[static_cast<std::size_t>(p / 100.0 * (samples.size() - 1))];
    const auto approx = hist.percentile(p);
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                static_cast<double>(2 * bin))
        << "p" << p << " dist " << dist;
  }
}

INSTANTIATE_TEST_SUITE_P(Distributions, HistogramPercentiles, ::testing::Values(0, 1, 2),
                         [](const auto& info) {
                           return info.param == 0   ? "uniform"
                                  : info.param == 1 ? "exponential"
                                                    : "bimodal";
                         });

// ---------------------------------------------------------------------------
// SPSC ring: cross-thread integrity across capacities
// ---------------------------------------------------------------------------

class SpscRingStress : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpscRingStress, NoLossNoDuplication) {
  mb::SpscRing<std::uint64_t> ring(GetParam());
  constexpr std::uint64_t kItems = 200'000;
  std::atomic<bool> done{false};
  std::uint64_t sum = 0, count = 0;

  std::thread consumer([&] {
    std::uint64_t v;
    std::uint64_t expected = 0;
    while (count < kItems) {
      if (ring.pop(v)) {
        EXPECT_EQ(v, expected);  // FIFO order preserved
        ++expected;
        sum += v;
        ++count;
      } else if (done.load(std::memory_order_acquire) && ring.empty()) {
        break;
      }
    }
  });
  for (std::uint64_t i = 0; i < kItems; ++i) {
    while (!ring.push(i)) {
    }
  }
  done.store(true, std::memory_order_release);
  consumer.join();
  EXPECT_EQ(count, kItems);
  EXPECT_EQ(sum, kItems * (kItems - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(Capacities, SpscRingStress, ::testing::Values(2u, 64u, 1024u),
                         [](const auto& info) { return "cap" + std::to_string(info.param); });

// ---------------------------------------------------------------------------
// Clock sync: convergence across timer granularities and drift
// ---------------------------------------------------------------------------

struct ClockSyncParam {
  ms::SimTime increment_ps;
  std::int64_t drift_ppb;
};

class ClockSyncSweep : public ::testing::TestWithParam<ClockSyncParam> {};

TEST_P(ClockSyncSweep, ResidualWithinTwoIncrements) {
  const auto param = GetParam();
  moongen::stats::Mt19937_64 rng(static_cast<std::uint64_t>(param.increment_ps));
  int failures = 0;
  for (int trial = 0; trial < 40; ++trial) {
    ms::PtpClock a({.increment_ps = param.increment_ps}, rng());
    ms::PtpClock b({.increment_ps = param.increment_ps, .drift_ppb = param.drift_ppb}, rng());
    b.adjust(static_cast<std::int64_t>(rng() % 100'000'000));
    const auto result = ms::synchronize_clocks(a, b, 0, rng);
    if (std::llabs(result.residual_ps) > 2 * static_cast<std::int64_t>(param.increment_ps))
      ++failures;
  }
  EXPECT_LE(failures, 1);
}

INSTANTIATE_TEST_SUITE_P(GranularityAndDrift, ClockSyncSweep,
                         ::testing::Values(ClockSyncParam{6'400, 0}, ClockSyncParam{6'400, 35'000},
                                           ClockSyncParam{12'800, 0},
                                           ClockSyncParam{12'800, 35'000},
                                           ClockSyncParam{64'000, 0}),
                         [](const auto& info) {
                           return "inc" + std::to_string(info.param.increment_ps) + "_drift" +
                                  std::to_string(info.param.drift_ppb);
                         });

// ---------------------------------------------------------------------------
// CRC-paced generator: exact average rate across patterns
// ---------------------------------------------------------------------------

class CrcPacedRate : public ::testing::TestWithParam<double> {};

TEST_P(CrcPacedRate, ValidPacketRateIsExact) {
  const double mpps = GetParam();
  moongen::test::TenGbeFiberBed bed;
  bed.b.rx_queue(0).set_store(false);
  std::uint64_t received = 0;
  bed.b.rx_queue(0).set_callback([&](const mn::RxQueueModel::Entry&) { ++received; });
  mc::UdpTemplateOptions opts;
  opts.frame_size = 96;
  auto gen = mc::SimLoadGen::crc_paced(bed.a.tx_queue(0), mc::make_udp_frame(opts),
                                       std::make_unique<mc::CbrPattern>(mpps), 10'000);
  const ms::SimTime duration = 30 * ms::kPsPerMs;
  bed.events.run_until(duration);
  const double achieved = static_cast<double>(received) / ms::to_seconds(duration) / 1e6;
  EXPECT_NEAR(achieved, mpps, mpps * 0.005 + 0.01);
}

INSTANTIATE_TEST_SUITE_P(Rates, CrcPacedRate, ::testing::Values(0.1, 0.5, 1.0, 2.0, 5.0),
                         [](const auto& info) {
                           return "kpps" + std::to_string(static_cast<int>(info.param * 1000));
                         });

// ---------------------------------------------------------------------------
// Generic generator: fill/classify round trip over the protocol matrix
// ---------------------------------------------------------------------------

// gtest names each case after the raw bytes of its parameter, so the
// struct spells out its padding: implicit padding would print whatever the
// stack held and give the cases a different name on every build.
struct ProtoMatrixParam {
  moongen::baseline::StaticGenConfig::L3 l3;
  moongen::baseline::StaticGenConfig::L4 l4;
  bool vlan;
  std::uint8_t reserved[5] = {};
  std::size_t size;
};
static_assert(std::has_unique_object_representations_v<ProtoMatrixParam>,
              "ProtoMatrixParam must have no implicit padding");

class ProtoMatrix : public ::testing::TestWithParam<ProtoMatrixParam> {};

TEST_P(ProtoMatrix, CraftedPacketsClassifyBack) {
  using moongen::baseline::StaticGenConfig;
  using moongen::baseline::StaticGenerator;
  const auto param = GetParam();

  mc::DeviceTable devices;
  auto& tx = devices.config(0, 1, 1);
  auto& rx = devices.config(1, 1, 1);
  tx.connect_to(rx);

  StaticGenConfig cfg;
  cfg.packet_size = param.size;
  cfg.l3 = param.l3;
  cfg.l4 = param.l4;
  cfg.vlan_enabled = param.vlan;
  cfg.checksum_offload = false;
  StaticGenerator gen(tx, 0, cfg);
  gen.run_packets(16);

  mb::BufArray bufs(32);
  const auto n = rx.get_rx_queue(0).recv(bufs);
  ASSERT_EQ(n, 16u);
  for (auto* buf : bufs) {
    const auto pc = mp::classify(buf->bytes());
    ASSERT_TRUE(pc.has_value());
    EXPECT_EQ(pc->has_vlan, param.vlan);
    EXPECT_EQ(pc->ether_type, param.l3 == StaticGenConfig::L3::kIpv4 ? mp::EtherType::kIPv4
                                                                     : mp::EtherType::kIPv6);
    EXPECT_EQ(pc->l4_protocol, param.l4 == StaticGenConfig::L4::kUdp ? mp::IpProtocol::kUdp
                                                                     : mp::IpProtocol::kTcp);
  }
  bufs.free_all();
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ProtoMatrix,
    ::testing::Values(
        ProtoMatrixParam{.l3 = moongen::baseline::StaticGenConfig::L3::kIpv4,
                         .l4 = moongen::baseline::StaticGenConfig::L4::kUdp,
                         .vlan = false,
                         .size = 60},
        ProtoMatrixParam{.l3 = moongen::baseline::StaticGenConfig::L3::kIpv4,
                         .l4 = moongen::baseline::StaticGenConfig::L4::kTcp,
                         .vlan = false,
                         .size = 60},
        ProtoMatrixParam{.l3 = moongen::baseline::StaticGenConfig::L3::kIpv6,
                         .l4 = moongen::baseline::StaticGenConfig::L4::kUdp,
                         .vlan = false,
                         .size = 80},
        ProtoMatrixParam{.l3 = moongen::baseline::StaticGenConfig::L3::kIpv6,
                         .l4 = moongen::baseline::StaticGenConfig::L4::kTcp,
                         .vlan = false,
                         .size = 80},
        ProtoMatrixParam{.l3 = moongen::baseline::StaticGenConfig::L3::kIpv4,
                         .l4 = moongen::baseline::StaticGenConfig::L4::kUdp,
                         .vlan = true,
                         .size = 64},
        ProtoMatrixParam{.l3 = moongen::baseline::StaticGenConfig::L3::kIpv6,
                         .l4 = moongen::baseline::StaticGenConfig::L4::kTcp,
                         .vlan = true,
                         .size = 96}),
    [](const auto& info) {
      std::string name =
          info.param.l3 == moongen::baseline::StaticGenConfig::L3::kIpv4 ? "v4" : "v6";
      name += info.param.l4 == moongen::baseline::StaticGenConfig::L4::kUdp ? "udp" : "tcp";
      if (info.param.vlan) name += "vlan";
      name += "_" + std::to_string(info.param.size);
      return name;
    });
