// MT19937-64 and libstdc++'s uniform-real and exponential draws over it,
// computed without branches on random bits.
//
// The standard library's 64-bit Mersenne Twister picks the twist's matrix
// constant with `(y & 1) ? a : 0`, which GCC 12 compiles to a branch on a
// random bit, and generate_canonical converts the 64-bit draw to double with
// a branch on its top bit; per-frame pacing, jitter and timer draws and a
// script's math.random calls would mispredict both half the time.
// Mt19937_64 selects the constant with a mask and returns exactly the
// standard engine's stream for every seed; canonical(), uniform_real() and
// exponential() return exactly what libstdc++ 12's generate_canonical and
// its uniform real and exponential distributions return for the same
// engine state. So no simulated value, golden file or paper figure changes.
//
// std::uniform_int_distribution (one 128-bit multiply per draw in
// libstdc++) and std::normal_distribution take Mt19937_64 unchanged.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace moongen::stats {

/// The 64-bit Mersenne Twister (Matsumoto and Nishimura) with the standard
/// engine's parameters and seeding: a drop-in UniformRandomBitGenerator.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type default_seed = 5489u;

  Mt19937_64() : Mt19937_64(default_seed) {}
  explicit Mt19937_64(result_type value) { seed(value); }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

  void seed(result_type value = default_seed) {
    x_[0] = value;
    for (std::size_t i = 1; i < kN; ++i) {
      const result_type prev = x_[i - 1];
      x_[i] = (prev ^ (prev >> 62)) * kSeedMultiplier + i;
    }
    p_ = kN;
  }

  result_type operator()() {
    if (p_ >= kN) twist();
    result_type z = x_[p_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    return z ^ (z >> 43);
  }

  /// Advances the stream by `n` draws.
  void discard(unsigned long long n) {
    while (n > kN - p_) {
      n -= kN - p_;
      twist();
    }
    p_ += static_cast<std::size_t>(n);
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr result_type kMatrixA = 0xb5026f5aa96619e9ull;
  static constexpr result_type kUpperMask = ~result_type{0} << 31;
  static constexpr result_type kSeedMultiplier = 6364136223846793005ull;

  /// One twist step: the top bit of `upper`, the low 31 bits of `lower`,
  /// and the matrix constant masked in when that word is odd.
  static result_type twisted(result_type upper, result_type lower, result_type far) {
    const result_type y = (upper & kUpperMask) | (lower & ~kUpperMask);
    return far ^ (y >> 1) ^ ((result_type{0} - (y & 1)) & kMatrixA);
  }

  void twist() {
    for (std::size_t k = 0; k < kN - kM; ++k) x_[k] = twisted(x_[k], x_[k + 1], x_[k + kM]);
    for (std::size_t k = kN - kM; k < kN - 1; ++k)
      x_[k] = twisted(x_[k], x_[k + 1], x_[k + kM - kN]);
    x_[kN - 1] = twisted(x_[kN - 1], x_[0], x_[kM - 1]);
    p_ = 0;
  }

  std::array<result_type, kN> x_{};
  std::size_t p_ = kN;
};

/// libstdc++ 12's std::generate_canonical<double, 53>(g) for an engine
/// whose range is all 64 bits: the draw rounded to the nearest double,
/// scaled by 2^-64 and clamped to nextafter(1, 0) when it rounded up to 1.
/// The two 32-bit halves convert exactly, so their sum rounds once: the
/// same round-to-nearest as the library's branchy unsigned conversion.
template <class Urbg>
double canonical(Urbg& g) {
  static_assert(Urbg::min() == 0 && Urbg::max() == std::numeric_limits<std::uint64_t>::max(),
                "canonical() needs an engine with the full 64-bit range");
  constexpr double kBelowOne = 0x1.fffffffffffffp-1;  // nextafter(1.0, 0.0)
  const std::uint64_t x = g();
  const double rounded = static_cast<double>(static_cast<std::uint32_t>(x >> 32)) * 0x1p32 +
                         static_cast<double>(static_cast<std::uint32_t>(x));
  return std::min(rounded * 0x1p-64, kBelowOne);
}

/// A draw of libstdc++ 12's uniform real distribution over [a, b).
template <class Urbg>
double uniform_real(Urbg& g, double a, double b) {
  return canonical(g) * (b - a) + a;
}

/// A draw of libstdc++ 12's exponential distribution with rate `lambda`.
template <class Urbg>
double exponential(Urbg& g, double lambda) {
  return -std::log(1.0 - canonical(g)) / lambda;
}

}  // namespace moongen::stats
