// Cable / PHY models.
//
// The end-to-end latency of a direct cable is t = k + l / vp (paper
// Section 6.1, Table 3): a fixed (de)modulation time k of the two PHYs plus
// propagation at a fraction vp of the speed of light. 10GBASE-T adds
// per-frame latency variance from its block code (LDPC frames on layer 1);
// fiber with 10GBASE-SR is deterministic.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace moongen::wire {

enum class PhyJitter {
  kNone,       ///< 10GBASE-SR fiber: deterministic latency
  kTenGBaseT,  ///< 10GBASE-T block code: >99.5 % within +-6.4 ns, range 64 ns
};

struct CableSpec {
  double length_m = 2.0;
  /// Propagation speed as a fraction of c (fiber: 0.72, Cat 5e: 0.69).
  double vp_fraction_c = 0.72;
  /// Total (de)modulation time of both PHYs (k in Table 3).
  sim::SimTime k_ps = 310'700;
  PhyJitter jitter = PhyJitter::kNone;

  /// Propagation delay l / vp.
  [[nodiscard]] sim::SimTime propagation_ps() const {
    constexpr double kSpeedOfLightMPerNs = 0.299792458;
    return static_cast<sim::SimTime>(length_m / (vp_fraction_c * kSpeedOfLightMPerNs) * 1e3);
  }
};

/// OM3 multimode fiber between two 82599 ports with 10GBASE-SR SFP+ modules
/// (Table 3: fitted k = 310.7 ns, vp = 0.72 c). The model's true k is set
/// 2 ns above the fitted value because the 82599's 12.8 ns timer
/// quantization floors the *measured* latencies; with this k the quantized
/// readings reproduce the paper's exact numbers: 320 ns at 2 m, the bimodal
/// 345.6/358.4 ns split at 8.5 m, and a 403.2 ns average at 20 m.
inline CableSpec fiber_om3(double length_m) {
  return CableSpec{length_m, 0.72, 312'700, PhyJitter::kNone};
}

/// Cat 5e copper between two X540 ports (10GBASE-T): k = 2147.2 ns,
/// vp = 0.69 c, block-code latency variance.
inline CableSpec cat5e_10gbaset(double length_m) {
  return CableSpec{length_m, 0.69, 2'147'200, PhyJitter::kTenGBaseT};
}

/// Generic GbE copper patch (for the 82580 inter-arrival testbed).
inline CableSpec cat5e_gbe(double length_m) {
  return CableSpec{length_m, 0.69, 2'000'000, PhyJitter::kNone};
}

}  // namespace moongen::wire
