// Deterministic workload samplers for the RPC plane.
//
// The std::<distribution> classes are implementation-defined: the same seed
// produces different draws on libstdc++ and libc++, which breaks the
// testbed's byte-identical determinism contract the moment a workload is
// parameterized by a distribution. These samplers are self-contained —
// SplitMix64 plus closed-form inverse transforms — so a (parameters, seed)
// pair yields the same sequence on every platform.
//
// All samplers are allocation-free after construction: ZipfSampler builds a
// Walker/Vose alias table once (O(n) setup, O(1) per draw), the continuous
// samplers hold a handful of doubles. One draw is one or two RNG steps.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace moongen::stats {

/// The splitmix64 step as a hash: adds the golden-ratio increment to `x`
/// and finalizes (2 multiplies, 3 xor-shifts). Sequential inputs scatter
/// uniformly over all 64 bits, so hash tables may use the low bits alone;
/// seeds derived as splitmix64(base + kSplitMix64Gamma * id) never share a
/// stream.
inline constexpr std::uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ull;
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += kSplitMix64Gamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// 64-bit FNV-1a over the bytes of `s`: a stable hash of site names.
inline std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// SplitMix64 (Steele et al.): full-period 64-bit generator, 2 multiplies
/// and 3 xor-shifts per draw. Also usable as a seed mixer: construct from a
/// base seed and take successive next() values as derived stream seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    const std::uint64_t z = splitmix64(state_);
    state_ += kSplitMix64Gamma;
    return z;
  }

  /// Uniform double in [0, 1) with the full 53 bits of mantissa.
  double next_double() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Exponentially distributed positive reals with the given mean (inverse
/// CDF transform). The workhorse for Poisson arrivals and memoryless
/// service times.
class ExponentialSampler {
 public:
  ExponentialSampler(double mean, std::uint64_t seed) : mean_(mean), rng_(seed) {}

  double next() {
    // log1p(-u) with u in [0, 1) never evaluates log(0); the largest
    // possible draw is mean * 36.7 (u one ulp below 1).
    return -mean_ * std::log1p(-rng_.next_double());
  }

  [[nodiscard]] double mean() const { return mean_; }

 private:
  double mean_;
  SplitMix64 rng_;
};

/// Zipf-distributed ranks 0..n-1: P(rank = i) proportional to 1/(i+1)^skew.
/// Draws use a precomputed Walker/Vose alias table — one RNG step and one
/// table probe regardless of n — so a million-key popularity distribution
/// costs the same per draw as a coin flip. skew = 0 degenerates to uniform,
/// n = 1 always returns rank 0.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double skew, std::uint64_t seed);

  std::uint64_t next();

  /// Analytic probability of `rank` (for goodness-of-fit tests).
  [[nodiscard]] double probability(std::size_t rank) const;

  [[nodiscard]] std::size_t support() const { return accept_.size(); }
  [[nodiscard]] double skew() const { return skew_; }

 private:
  double skew_ = 0.0;
  double norm_ = 1.0;  // generalized harmonic number H(n, skew)
  std::vector<double> accept_;       // alias acceptance threshold per bucket
  std::vector<std::uint32_t> alias_; // fallback rank per bucket
  SplitMix64 rng_;
};

}  // namespace moongen::stats
