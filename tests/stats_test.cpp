// Unit tests for running statistics, fixed-bin histograms, throughput
// counters and the random engine and draws of stats/mt19937_64.hpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <utility>
#include <vector>

#include "stats/counters.hpp"
#include "stats/mt19937_64.hpp"
#include "stats/running_stats.hpp"
#include "telemetry/log_linear_histogram.hpp"

namespace mt = moongen::telemetry;
namespace st = moongen::stats;

// ---------------------------------------------------------------------------
// RunningStats
// ---------------------------------------------------------------------------

TEST(RunningStats, MeanAndStddevMatchClosedForm) {
  st::RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample stddev of this classic dataset: sqrt(32/7).
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  st::RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, EmptyIsSafe) {
  st::RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStats, NumericallyStableForLargeOffsets) {
  st::RunningStats s;
  for (int i = 0; i < 1000; ++i) s.add(1e12 + (i % 2 ? 1.0 : -1.0));
  EXPECT_NEAR(s.mean(), 1e12, 1.0);
  EXPECT_NEAR(s.stddev(), 1.0005, 0.01);
}

TEST(RunningStatsMerge, MatchesSequentialAccumulation) {
  // Chan et al. parallel combine: merging per-shard accumulators must be
  // indistinguishable from add()ing every sample into one.
  st::RunningStats a;
  st::RunningStats b;
  st::RunningStats all;
  for (int i = 0; i < 2000; ++i) {
    const double x = std::sin(i * 0.1) * 100.0 + (i % 7);
    (i < 800 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.stddev(), all.stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatsMerge, EitherSideMayBeEmpty) {
  st::RunningStats filled;
  filled.add(2.0);
  filled.add(4.0);

  st::RunningStats empty_dst;
  empty_dst.merge(filled);
  EXPECT_EQ(empty_dst.count(), 2u);
  EXPECT_DOUBLE_EQ(empty_dst.mean(), 3.0);
  EXPECT_DOUBLE_EQ(empty_dst.min(), 2.0);
  EXPECT_DOUBLE_EQ(empty_dst.max(), 4.0);

  st::RunningStats empty_src;
  filled.merge(empty_src);
  EXPECT_EQ(filled.count(), 2u);
  EXPECT_DOUBLE_EQ(filled.mean(), 3.0);

  st::RunningStats both_a;
  st::RunningStats both_b;
  both_a.merge(both_b);
  EXPECT_EQ(both_a.count(), 0u);
  EXPECT_DOUBLE_EQ(both_a.mean(), 0.0);
}

TEST(RunningStatsMerge, MergeOfManyShardsIsOrderInsensitive) {
  std::vector<st::RunningStats> shards(4);
  st::RunningStats all;
  for (int i = 0; i < 4000; ++i) {
    const double x = (i * 37 % 101) - 50.0;
    shards[static_cast<std::size_t>(i % 4)].add(x);
    all.add(x);
  }
  st::RunningStats fwd;
  for (const auto& s : shards) fwd.merge(s);
  st::RunningStats rev;
  for (auto it = shards.rbegin(); it != shards.rend(); ++it) rev.merge(*it);
  EXPECT_EQ(fwd.count(), all.count());
  EXPECT_NEAR(fwd.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(fwd.stddev(), all.stddev(), 1e-9);
  EXPECT_NEAR(rev.mean(), fwd.mean(), 1e-9);
  EXPECT_NEAR(rev.stddev(), fwd.stddev(), 1e-9);
}

// ---------------------------------------------------------------------------
// Histogram: fixed-bin geometry (telemetry::HistogramConfig::linear)
// ---------------------------------------------------------------------------

TEST(Histogram, BinningAndTotal) {
  mt::LogLinearHistogram h(mt::HistogramConfig::linear(64, 1024));
  h.record(0);
  h.record(63);   // same bin as 0
  h.record(64);   // next bin
  h.record(2000); // overflow
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bucket_count(), 17u);  // [0, 1088) in 64-wide bins
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket_lower(16), 1024u);
  EXPECT_EQ(h.bucket_width(16), 64u);
  EXPECT_EQ(h.overflow(), 1u);
}

TEST(Histogram, PercentileAndMedian) {
  mt::LogLinearHistogram h(mt::HistogramConfig::linear(1, 1000));
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  EXPECT_EQ(h.median(), 50u);
  EXPECT_EQ(h.percentile(25), 25u);
  EXPECT_EQ(h.percentile(75), 75u);
  EXPECT_EQ(h.percentile(0), 1u);
  EXPECT_EQ(h.percentile(100), 100u);
}

TEST(Histogram, FractionBetweenIsBinResolved) {
  mt::LogLinearHistogram h(mt::HistogramConfig::linear(64, 4096));
  for (int i = 0; i < 50; ++i) h.record(128);  // bin [128,192)
  for (int i = 0; i < 50; ++i) h.record(512);  // bin [512,576)
  EXPECT_DOUBLE_EQ(h.fraction_between(128, 191), 0.5);
  EXPECT_DOUBLE_EQ(h.fraction_between(150, 150), 0.5);  // the bin holding 150
  EXPECT_DOUBLE_EQ(h.fraction_between(0, 4095), 1.0);
  EXPECT_DOUBLE_EQ(h.fraction_between(1024, 1024), 0.0);
}

TEST(Histogram, FractionBetweenIncludesOverflow) {
  // Overflow counts live in the bin past the last bin; a range whose
  // upper end reaches past the last bin must cover them (regression: they
  // were silently dropped, undercounting the fraction).
  mt::LogLinearHistogram h(mt::HistogramConfig::linear(64, 1024));  // bins cover [0, 1088)
  for (int i = 0; i < 25; ++i) h.record(100);
  for (int i = 0; i < 75; ++i) h.record(5'000);  // overflow
  EXPECT_DOUBLE_EQ(h.fraction_between(5'000, 5'000), 0.75);
  EXPECT_DOUBLE_EQ(h.fraction_between(0, 5'000), 1.0);
  EXPECT_DOUBLE_EQ(h.fraction_between(2'000, 10'000), 0.75);  // fully in overflow
  EXPECT_DOUBLE_EQ(h.fraction_between(0, 1'000), 0.25);  // overflow not covered
}

TEST(Histogram, MergeAccumulates) {
  mt::LogLinearHistogram a(mt::HistogramConfig::linear(10, 100));
  mt::LogLinearHistogram b(mt::HistogramConfig::linear(10, 100));
  a.record(5);
  b.record(5);
  b.record(95);
  a.merge(b);
  EXPECT_EQ(a.total(), 3u);
  EXPECT_EQ(a.bucket(0), 2u);
}

TEST(Histogram, MergeRejectsDifferentBinWidth) {
  mt::LogLinearHistogram a(mt::HistogramConfig::linear(10, 100));
  mt::LogLinearHistogram b(mt::HistogramConfig::linear(20, 100));
  b.record(5);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  EXPECT_EQ(a.total(), 0u);  // a is untouched on failure
}

TEST(Histogram, MergeRejectsDifferentBinCount) {
  mt::LogLinearHistogram a(mt::HistogramConfig::linear(10, 100));
  mt::LogLinearHistogram b(mt::HistogramConfig::linear(10, 200));
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Histogram, RejectsZeroBinWidth) {
  EXPECT_THROW((void)mt::HistogramConfig::linear(0, 100), std::invalid_argument);
  EXPECT_THROW(mt::LogLinearHistogram({.unit = 0}), std::invalid_argument);
}

TEST(Histogram, PrintSkipsEmptyBins) {
  mt::LogLinearHistogram h(mt::HistogramConfig::linear(64, 1024));
  h.record(100);
  std::ostringstream os;
  h.print(os);
  EXPECT_NE(os.str().find("64"), std::string::npos);
  EXPECT_EQ(os.str().find("128 "), std::string::npos);
}

// ---------------------------------------------------------------------------
// Counters (driven by a fake time source)
// ---------------------------------------------------------------------------

namespace {

struct FakeTime {
  std::uint64_t now = 0;
  st::TimeSource source() {
    return [this] { return now; };
  }
};

}  // namespace

TEST(Counters, ManualTxCounterAggregatesIntervals) {
  FakeTime t;
  std::ostringstream os;
  st::ManualTxCounter ctr("tx", st::Format::kPlain, t.source(), &os);
  // 1.0 Mpps for 3 seconds: 100k packets every 100 ms.
  for (int step = 0; step < 30; ++step) {
    ctr.update_with_size(100'000, 60);
    t.now += 100'000'000;  // 100 ms
  }
  ctr.finalize();
  EXPECT_EQ(ctr.total_packets(), 3'000'000u);
  EXPECT_EQ(ctr.total_bytes(), 3'000'000u * 60);
  EXPECT_NEAR(ctr.mpps_stats().mean(), 1.0, 0.01);
  // Wire rate: (60 + 24) bytes * 8 * 1 Mpps = 672 Mbit/s.
  EXPECT_NEAR(ctr.mbit_stats().mean(), 672.0, 1.0);
  EXPECT_NE(os.str().find("TOTAL"), std::string::npos);
}

TEST(Counters, PktRxCounterCountsIndividualPackets) {
  FakeTime t;
  st::PktRxCounter ctr("rx", st::Format::kCsv, t.source(), nullptr);
  for (int i = 0; i < 100; ++i) {
    t.now += 1'000'000;
    ctr.count_packet(124);
  }
  ctr.finalize();
  EXPECT_EQ(ctr.total_packets(), 100u);
  EXPECT_EQ(ctr.total_bytes(), 12'400u);
}

TEST(Counters, CsvFormatEmitsCommaSeparated) {
  FakeTime t;
  std::ostringstream os;
  st::ManualTxCounter ctr("flow42", st::Format::kCsv, t.source(), &os);
  t.now += 2'000'000'000;
  ctr.update_with_size(1000, 60);
  ctr.finalize();
  EXPECT_NE(os.str().find("flow42,"), std::string::npos);
}

TEST(Counters, FinalizeIsIdempotent) {
  FakeTime t;
  std::ostringstream os;
  st::ManualTxCounter ctr("x", st::Format::kPlain, t.source(), &os);
  t.now += 1'500'000'000;
  ctr.update_with_size(10, 60);
  ctr.finalize();
  const auto once = os.str();
  ctr.finalize();
  EXPECT_EQ(os.str(), once);
}

TEST(Counters, SingleRecordSpanningManyIntervalsClosesThemAll) {
  FakeTime t;
  st::ManualTxCounter ctr("gap", st::Format::kPlain, t.source(), nullptr);
  t.now += 500'000'000;
  ctr.update_with_size(1'000'000, 60);  // lands in the first second
  // Nothing happens for 4.5 s, then one more update: the quiet seconds must
  // be sliced into (empty) intervals, not folded into one long interval.
  t.now += 4'500'000'000ull;
  ctr.update_with_size(1'000'000, 60);
  t.now += 1'000'000'000;  // let finalize close the last interval
  ctr.finalize();
  EXPECT_EQ(ctr.total_packets(), 2'000'000u);
  // Intervals: [0,1) at 1 Mpps, four empty seconds, [5,6) at 1 Mpps.
  EXPECT_NEAR(ctr.mpps_stats().mean(), (1.0 + 0.0 + 0.0 + 0.0 + 0.0 + 1.0) / 6.0, 0.01);
}

TEST(Counters, UpdateExactlyOnIntervalBoundary) {
  FakeTime t;
  st::ManualTxCounter ctr("edge", st::Format::kPlain, t.source(), nullptr);
  t.now += 1'000'000'000;  // exactly one interval later
  ctr.update_with_size(2'000'000, 60);
  // The boundary-exact update must close the (empty) first interval and
  // attribute the packets to the second one.
  t.now += 1'000'000'000;
  ctr.update_with_size(0, 0);
  ctr.finalize();
  EXPECT_EQ(ctr.total_packets(), 2'000'000u);
  EXPECT_NEAR(ctr.mpps_stats().mean(), 1.0, 0.01);  // (0 + 2) / 2 Mpps
}

TEST(Counters, BackwardsJumpingTimeSourceDoesNotUnderflow) {
  FakeTime t;
  t.now = 5'000'000'000ull;
  st::ManualTxCounter ctr("rewind", st::Format::kPlain, t.source(), nullptr);
  t.now = 6'000'000'000ull;
  ctr.update_with_size(1'000'000, 60);
  // A reset virtual clock jumps behind the interval start. Without the
  // clamp this underflows to ~2^64 ns of "elapsed" time and spins closing
  // billions of intervals.
  t.now = 0;
  ctr.update_with_size(500'000, 60);
  t.now = 7'000'000'000ull;
  ctr.update_with_size(500'000, 60);
  ctr.finalize();
  EXPECT_EQ(ctr.total_packets(), 2'000'000u);
  EXPECT_EQ(ctr.total_bytes(), 2'000'000u * 60);
}

TEST(Counters, StddevReflectsRateVariation) {
  FakeTime t;
  st::ManualTxCounter ctr("var", st::Format::kPlain, t.source(), nullptr);
  // Alternate 1 Mpps and 2 Mpps seconds.
  for (int s = 0; s < 10; ++s) {
    t.now += 1'000'000'000;
    ctr.update_with_size(s % 2 == 0 ? 1'000'000 : 2'000'000, 60);
  }
  ctr.finalize();
  EXPECT_GT(ctr.mpps_stats().stddev(), 0.4);
}

// ---------------------------------------------------------------------------
// Mt19937_64 and its draws: the std engine and libstdc++'s distributions
// are the reference, value for value.
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint64_t kAllOnes = std::numeric_limits<std::uint64_t>::max();
/// Draws that span more than ten refills of the 312-word state.
constexpr int kRefillSpan = 11 * 312 + 7;

/// A full-range engine that returns `value` on every draw, so the edges of
/// canonical() can be fed directly.
struct FixedDraw {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return kAllOnes; }
  result_type operator()() { return value; }
  result_type value = 0;
};

}  // namespace

TEST(Mt19937_64, MatchesStdEngineDrawForDraw) {
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5489},
                                   std::uint64_t{0x5eed}, kAllOnes}) {
    std::mt19937_64 want(seed);
    st::Mt19937_64 got(seed);
    for (int i = 0; i < kRefillSpan; ++i) {
      ASSERT_EQ(got(), want()) << "seed " << seed << " draw " << i;
    }
  }
  std::mt19937_64 want_default;
  st::Mt19937_64 got_default;
  for (int i = 0; i < kRefillSpan; ++i) ASSERT_EQ(got_default(), want_default()) << i;
  static_assert(st::Mt19937_64::min() == std::mt19937_64::min());
  static_assert(st::Mt19937_64::max() == std::mt19937_64::max());
  static_assert(st::Mt19937_64::default_seed == std::mt19937_64::default_seed);
}

TEST(Mt19937_64, ReseedAndDiscardMatchStdEngine) {
  std::mt19937_64 want(0x5eed);
  st::Mt19937_64 got(0x5eed);
  // Discards that stop short of, on and past a refill, and span several.
  for (const unsigned long long skip : {0ull, 1ull, 150ull, 311ull, 312ull, 313ull, 1000ull,
                                        5 * 312ull}) {
    want.discard(skip);
    got.discard(skip);
    for (int i = 0; i < 100; ++i) ASSERT_EQ(got(), want()) << "after discard " << skip;
  }
  for (const std::uint64_t seed : {std::uint64_t{1}, kAllOnes, std::uint64_t{0}}) {
    want.seed(seed);
    got.seed(seed);
    for (int i = 0; i < kRefillSpan; ++i) ASSERT_EQ(got(), want()) << "reseed " << seed;
  }
  want.seed();
  got.seed();
  for (int i = 0; i < 400; ++i) ASSERT_EQ(got(), want()) << "default reseed";
}

TEST(Mt19937_64, DrivesStdDistributionsLikeTheStdEngine) {
  // The integer and normal draws the simulator keeps on std distributions.
  const auto draws = [](auto& engine) {
    std::uniform_int_distribution<int> ticks(-1, 1);
    std::uniform_int_distribution<std::int64_t> stall(600'000, 1'900'000);
    std::normal_distribution<double> jitter(0.0, 30'000.0);
    std::vector<double> out;
    for (int i = 0; i < 10'000; ++i) {
      out.push_back(ticks(engine));
      out.push_back(static_cast<double>(stall(engine)));
      out.push_back(jitter(engine));
    }
    return out;
  };
  std::mt19937_64 want(77);
  st::Mt19937_64 got(77);
  EXPECT_EQ(draws(got), draws(want));
}

TEST(RandomDraws, MatchLibstdcxxOverAMillionDraws) {
  constexpr int kDraws = 1'000'000;
  {
    std::mt19937_64 want(3);
    st::Mt19937_64 got(3);
    for (int i = 0; i < kDraws; ++i) {
      ASSERT_EQ(st::canonical(got), (std::generate_canonical<double, 53>(want))) << i;
    }
  }
  const std::pair<double, double> ranges[] = {{0.0, 1.0}, {1.0, 1.6}, {0.75, 1.25}, {-3.5, 1e9}};
  for (const auto& [a, b] : ranges) {
    std::mt19937_64 want(11);
    st::Mt19937_64 got(11);
    std::uniform_real_distribution<double> dist(a, b);
    for (int i = 0; i < kDraws; ++i) {
      ASSERT_EQ(st::uniform_real(got, a, b), dist(want)) << "[" << a << ", " << b << ") " << i;
    }
  }
  for (const double lambda : {1e-5, 0.37, 1.0, 2.5e6}) {
    std::mt19937_64 want(29);
    st::Mt19937_64 got(29);
    std::exponential_distribution<double> dist(lambda);
    for (int i = 0; i < kDraws; ++i) {
      ASSERT_EQ(st::exponential(got, lambda), dist(want)) << "lambda " << lambda << " " << i;
    }
  }
}

TEST(RandomDraws, CanonicalEdgesRoundToNearestEvenAndStayBelowOne) {
  const double below_one = std::nextafter(1.0, 0.0);
  struct Edge {
    std::uint64_t draw;
    double want;
  };
  const Edge edges[] = {
      {0, 0.0},
      {1, 0x1p-64},
      // 2^53 + 1 and 2^53 + 3 are ties: they round to the even neighbour,
      // 2^53 and 2^53 + 4 (truncation would give 2^53 + 2 for the second).
      {(std::uint64_t{1} << 53) + 1, 0x1p-11},
      {(std::uint64_t{1} << 53) + 3, (0x1p53 + 4) * 0x1p-64},
      // Both halves carry bits: the sum of the halves rounds once.
      {0x00000001'00000001ull, 0x1.00000001p-32},
      // Just below the tie under 2^64: rounds down to 2^64 - 2^11.
      {kAllOnes - 1024, below_one},
      // The tie 2^64 - 2^10 and everything above round up to 2^64, which
      // the clamp turns into the largest double below 1.
      {kAllOnes - 1023, below_one},
      {kAllOnes, below_one},
  };
  for (const Edge& e : edges) {
    FixedDraw g{e.draw};
    FixedDraw ref{e.draw};
    EXPECT_EQ(st::canonical(g), e.want) << std::hex << e.draw;
    EXPECT_EQ(st::canonical(g), (std::generate_canonical<double, 53>(ref))) << std::hex << e.draw;
    std::uniform_real_distribution<double> uni(-2.0, 3.0);
    EXPECT_EQ(st::uniform_real(g, -2.0, 3.0), uni(ref)) << std::hex << e.draw;
    std::exponential_distribution<double> expo(0.5);
    EXPECT_EQ(st::exponential(g, 0.5), expo(ref)) << std::hex << e.draw;
  }
  // The largest exponential draw: -log(2^-53) / lambda.
  FixedDraw top{kAllOnes};
  EXPECT_DOUBLE_EQ(st::exponential(top, 1.0), 53 * std::log(2.0));
}
