// Pre-wired simulation testbeds shared by the benchmark harnesses,
// mirroring the paper's physical setups (Section 9).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "dut/forwarder.hpp"
#include "nic/chip.hpp"
#include "nic/port.hpp"
#include "sim/event_queue.hpp"
#include "wire/link.hpp"
#include "wire/recorder.hpp"

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

/// The Table 4 / Figure 8 testbed: X540 transmitting at GbE, Intel 82580
/// receiving and timestamping every packet with 64 ns precision.
struct GbeBed {
  sim::EventQueue events;
  nic::Port tx{events, nic::intel_x540(), 1'000, 1001};
  nic::Port rx{events, nic::intel_82580(), 1'000, 1002};
  wire::Link link{tx, rx, wire::cat5e_gbe(2.0), 1003};
  wire::InterArrivalRecorder recorder{rx, 0};
};

/// The Open vSwitch DuT testbed of Sections 7.4 / 8.2 / 8.3:
/// generator TX port -> DuT in -> (forwarder) -> DuT out -> generator RX.
struct DutBed {
  explicit DutBed(dut::ForwarderConfig cfg = {})
      : forwarder(events, dut_in, 0, dut_out, 0, cfg) {
    sink.rx_queue(0).set_store(false);  // latency samples come via PTP stamps
  }

  sim::EventQueue events;
  nic::Port gen_tx{events, nic::intel_x540(), 10'000, 2001};
  nic::Port dut_in{events, nic::intel_x540(), 10'000, 2002};
  nic::Port dut_out{events, nic::intel_x540(), 10'000, 2003};
  nic::Port sink{events, nic::intel_x540(), 10'000, 2004};
  wire::Link to_dut{gen_tx, dut_in, wire::cat5e_10gbaset(2.0), 2005};
  wire::Link to_sink{dut_out, sink, wire::cat5e_10gbaset(2.0), 2006};
  dut::Forwarder forwarder;
};

}  // namespace moongen::bench
