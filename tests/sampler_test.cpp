// Tests for the deterministic workload samplers (stats/samplers.hpp):
// SplitMix64 and the seed hashes, exponential inter-arrivals and the
// alias-table Zipf key-popularity sampler. Distributional checks use chi-square
// goodness-of-fit at fixed seeds — the streams are fully deterministic,
// so the thresholds are exact regression pins, not flaky statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "stats/samplers.hpp"

namespace st = moongen::stats;

namespace {

/// Chi-square statistic over observed counts vs. expected probabilities.
double chi_square(const std::vector<std::uint64_t>& observed,
                  const std::vector<double>& expected_p, std::uint64_t n) {
  double chi2 = 0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double expected = expected_p[i] * static_cast<double>(n);
    const double d = static_cast<double>(observed[i]) - expected;
    chi2 += d * d / expected;
  }
  return chi2;
}

}  // namespace

// ---------------------------------------------------------------------------
// SplitMix64
// ---------------------------------------------------------------------------

TEST(SplitMix64, IsDeterministicPerSeed) {
  st::SplitMix64 a(42);
  st::SplitMix64 b(42);
  st::SplitMix64 c(43);
  bool all_equal = true;
  bool any_differ = false;
  for (int i = 0; i < 1000; ++i) {
    const auto va = a.next();
    all_equal = all_equal && (va == b.next());
    any_differ = any_differ || (va != c.next());
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_differ);
}

TEST(SplitMix64, DoublesAreInUnitInterval) {
  st::SplitMix64 rng(7);
  double lo = 1.0;
  double hi = 0.0;
  for (int i = 0; i < 100'000; ++i) {
    const double u = rng.next_double();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  // The stream actually covers the interval.
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(SplitMix64, HashPinsTheReferenceValue) {
  // The reference generator's first output from state 0.
  EXPECT_EQ(st::splitmix64(0), 0xe220a8397b1dcdafull);
  // The generator hashes its running state, which steps by the gamma.
  st::SplitMix64 rng(5);
  EXPECT_EQ(rng.next(), st::splitmix64(5));
  EXPECT_EQ(rng.next(), st::splitmix64(5 + st::kSplitMix64Gamma));
}

TEST(Fnv1a, PinsTheReferenceValues) {
  EXPECT_EQ(st::fnv1a(""), 0xcbf29ce484222325ull);  // the offset basis
  EXPECT_EQ(st::fnv1a("a"), 0xaf63dc4c8601ec8cull);
}

// ---------------------------------------------------------------------------
// ExponentialSampler
// ---------------------------------------------------------------------------

TEST(ExponentialSampler, PassesChiSquareAgainstTheoreticalCdf) {
  constexpr double kMean = 1e6;
  constexpr int kBins = 10;
  constexpr std::uint64_t kDraws = 100'000;
  st::ExponentialSampler s(kMean, 11);
  // Equiprobable bins: boundaries at the exponential quantiles.
  std::vector<double> bounds;
  for (int i = 1; i < kBins; ++i)
    bounds.push_back(-kMean * std::log(1.0 - static_cast<double>(i) / kBins));
  std::vector<std::uint64_t> observed(kBins, 0);
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    const double x = s.next();
    std::size_t bin = 0;
    while (bin < bounds.size() && x >= bounds[bin]) ++bin;
    ++observed[bin];
  }
  const std::vector<double> expected(kBins, 1.0 / kBins);
  // 9 dof: the 0.999 quantile is 27.9.
  EXPECT_LT(chi_square(observed, expected, kDraws), 27.9);
}

TEST(ExponentialSampler, MeanConverges) {
  st::ExponentialSampler s(250.0, 3);
  double total = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) total += s.next();
  EXPECT_NEAR(total / n, 250.0, 2.5);  // within 1 %
}

// ---------------------------------------------------------------------------
// ZipfSampler
// ---------------------------------------------------------------------------

TEST(Zipf, ProbabilitiesSumToOne) {
  st::ZipfSampler z(100, 0.99, 1);
  double sum = 0;
  for (std::uint64_t r = 0; r < z.support(); ++r) sum += z.probability(r);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Zipf, PassesChiSquareAgainstItsOwnPmf) {
  constexpr std::size_t kKeys = 64;
  constexpr std::uint64_t kDraws = 200'000;
  st::ZipfSampler z(kKeys, 0.99, 17);
  std::vector<std::uint64_t> observed(kKeys, 0);
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    const auto k = z.next();
    ASSERT_LT(k, kKeys);
    ++observed[k];
  }
  std::vector<double> expected;
  for (std::uint64_t r = 0; r < kKeys; ++r) expected.push_back(z.probability(r));
  // 63 dof: the 0.999 quantile is 103.4.
  EXPECT_LT(chi_square(observed, expected, kDraws), 103.4);
}

TEST(Zipf, SkewZeroIsUniform) {
  constexpr std::size_t kKeys = 32;
  constexpr std::uint64_t kDraws = 100'000;
  st::ZipfSampler z(kKeys, 0.0, 23);
  for (std::uint64_t r = 0; r < kKeys; ++r)
    EXPECT_NEAR(z.probability(r), 1.0 / kKeys, 1e-12);
  std::vector<std::uint64_t> observed(kKeys, 0);
  for (std::uint64_t i = 0; i < kDraws; ++i) ++observed[z.next()];
  const std::vector<double> expected(kKeys, 1.0 / kKeys);
  // 31 dof: the 0.999 quantile is 61.1.
  EXPECT_LT(chi_square(observed, expected, kDraws), 61.1);
}

TEST(Zipf, SingleKeyAlwaysReturnsZero) {
  st::ZipfSampler z(1, 0.99, 9);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(z.next(), 0u);
  EXPECT_DOUBLE_EQ(z.probability(0), 1.0);
}

TEST(Zipf, HeavySkewConcentratesOnTheHead) {
  st::ZipfSampler z(1000, 1.2, 31);
  std::uint64_t head = 0;
  constexpr int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i)
    if (z.next() < 10) ++head;
  // The top 10 of 1000 keys carry the majority of the mass at skew 1.2.
  EXPECT_GT(head, kDraws / 2);
}

TEST(Zipf, RejectsDegenerateParameters) {
  EXPECT_THROW(st::ZipfSampler(0, 0.99, 1), std::invalid_argument);
  EXPECT_THROW(st::ZipfSampler(10, -0.5, 1), std::invalid_argument);
}

TEST(Zipf, IsDeterministicPerSeed) {
  st::ZipfSampler a(512, 0.99, 77);
  st::ZipfSampler b(512, 0.99, 77);
  st::ZipfSampler c(512, 0.99, 78);
  bool all_equal = true;
  bool any_differ = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto va = a.next();
    all_equal = all_equal && (va == b.next());
    any_differ = any_differ || (va != c.next());
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_differ);
}
