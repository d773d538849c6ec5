// Simulation time base.
//
// Virtual time is counted in integer *picoseconds*: at 10 GbE one byte takes
// exactly 800 ps on the wire, at GbE 8000 ps, and all NIC timestamp
// granularities in the paper (6.4 ns, 12.8 ns, 64 ns) are integral in ps, so
// every quantity in the reproduced experiments is exact.
#pragma once

#include <cstdint>

namespace moongen::sim {

/// Virtual time / durations in picoseconds.
using SimTime = std::uint64_t;

inline constexpr SimTime kPsPerNs = 1'000;
inline constexpr SimTime kPsPerUs = 1'000'000;
inline constexpr SimTime kPsPerMs = 1'000'000'000;
inline constexpr SimTime kPsPerSec = 1'000'000'000'000ull;

constexpr double to_seconds(SimTime t) { return static_cast<double>(t) / 1e12; }

/// Picoseconds to serialize one byte at `mbit_per_s` megabit/s.
constexpr SimTime byte_time_ps(std::uint64_t mbit_per_s) {
  // 8 bits / (mbit/s * 1e6 bit/s) seconds = 8e6/mbit ps.
  return 8'000'000ull / mbit_per_s;
}

static_assert(byte_time_ps(10'000) == 800);   // 10 GbE
static_assert(byte_time_ps(1'000) == 8'000);  // GbE
static_assert(byte_time_ps(40'000) == 200);   // 40 GbE

}  // namespace moongen::sim
