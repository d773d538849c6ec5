// Shared helpers for the benchmark harnesses.
//
// The paper quantifies generator cost in CPU cycles per packet (Section
// 5.1): the CPU is made the bottleneck and the cycle budget, not wall-clock
// throughput, is reported. We measure cycles with the TSC (which runs at
// the constant base frequency — the same unit the paper uses) and feed the
// results through the throughput model for the frequency-scaling figures.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include <chrono>

#include "stats/running_stats.hpp"

namespace moongen::bench {

/// Scale factor for simulated experiment durations / sample counts, set
/// via the MOONGEN_BENCH_SCALE environment variable (default 1.0; larger
/// values re-run the experiments closer to the paper's packet counts).
/// Anything but a finite number > 0 spelled by the whole value exits 2.
inline double bench_scale() {
  static const double scale = [] {
    const char* env = std::getenv("MOONGEN_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    const char* end = env + std::strlen(env);
    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(env, end, v);
    if (ec != std::errc{} || ptr != end || !std::isfinite(v) || v <= 0.0) {
      std::fprintf(stderr, "MOONGEN_BENCH_SCALE=%s is not a finite number > 0\n", env);
      std::exit(2);
    }
    return v;
  }();
  return scale;
}

inline std::uint64_t rdtsc() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Estimated TSC frequency in GHz (cycles per nanosecond).
inline double tsc_ghz() {
  static const double ghz = [] {
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t c0 = rdtsc();
    while (std::chrono::steady_clock::now() - t0 < std::chrono::milliseconds(50)) {
    }
    const std::uint64_t c1 = rdtsc();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    return static_cast<double>(c1 - c0) / ns;
  }();
  return ghz;
}

/// Runs `body(packets_per_rep)` `reps` times and returns cycles/packet
/// statistics (mean +- stddev over reps, as the paper reports).
inline stats::RunningStats measure_cycles_per_packet(
    const std::function<std::uint64_t()>& body, int reps = 10, int warmup = 2) {
  stats::RunningStats out;
  for (int r = 0; r < reps + warmup; ++r) {
    const std::uint64_t c0 = rdtsc();
    const std::uint64_t packets = body();
    const std::uint64_t c1 = rdtsc();
    if (r >= warmup && packets > 0)
      out.add(static_cast<double>(c1 - c0) / static_cast<double>(packets));
  }
  return out;
}

/// Paired measurement: interleaves the baseline and the operation under
/// test (A/B/A/B...) and reports statistics over the per-pair differences.
/// This cancels slow machine drift, which otherwise swamps single-digit
/// cycle deltas on shared hosts (the paper used a dedicated testbed).
inline stats::RunningStats measure_cycles_delta(const std::function<std::uint64_t()>& base,
                                                const std::function<std::uint64_t()>& op,
                                                int reps = 12, int warmup = 2) {
  stats::RunningStats out;
  auto one = [](const std::function<std::uint64_t()>& body) {
    const std::uint64_t c0 = rdtsc();
    const std::uint64_t packets = body();
    const std::uint64_t c1 = rdtsc();
    return static_cast<double>(c1 - c0) / static_cast<double>(packets);
  };
  for (int r = 0; r < reps + warmup; ++r) {
    const double a = one(base);
    const double b = one(op);
    if (r >= warmup) out.add(b - a);
  }
  return out;
}

inline void print_row(const char* label, const stats::RunningStats& s) {
  std::printf("  %-44s %8.1f +- %.1f\n", label, s.mean(), s.stddev());
}

inline void print_header(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

}  // namespace moongen::bench
