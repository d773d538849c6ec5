// Reproduces Figure 10: forwarding-latency difference between CBR traffic
// generated by the NIC's hardware rate control and by MoonGen's CRC-based
// software rate control (Section 8.2).
//
// Both mechanisms produce the same arrival pattern at the DuT, so the
// quartiles of the forwarding latency through Open vSwitch should agree:
// the paper finds the relative deviation within 1.2 sigma of 0 % for almost
// all points (one outlier of 1.5 % +- 0.5 %). This validates that loading
// the DuT with invalid packets does not disturb it.
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "core/rate_control.hpp"
#include "core/timestamper.hpp"
#include "testbed/scenario.hpp"
#include "topologies.hpp"

namespace mc = moongen::core;
namespace mn = moongen::nic;
namespace ms = moongen::sim;
namespace mtb = moongen::testbed;
namespace topo = moongen::topologies;

namespace {

mn::Frame background_frame() {
  mc::UdpTemplateOptions opts;
  opts.frame_size = 96;
  opts.ptp_payload = true;
  opts.ptp_message_type = 5;  // not timestamped, indistinguishable to DuT
  return mc::make_udp_frame(opts);
}

mn::Frame stamped_frame() {
  mc::UdpTemplateOptions opts;
  opts.frame_size = 96;
  opts.ptp_payload = true;
  opts.ptp_message_type = 0;
  return mc::make_udp_frame(opts);
}

struct Quartiles {
  double q25_us, q50_us, q75_us;
  std::uint64_t samples;
};

Quartiles measure(double mpps, bool crc_mode, ms::SimTime duration, std::uint64_t seed) {
  moongen::dut::ForwarderConfig fcfg;
  fcfg.seed = seed * 7919 + 13;
  mtb::Scenario s;
  s.telemetry(false);
  topo::forwarder_path(
      s, {.device_seeds = {2001, 2002, 2003, 2004}, .link_seeds = {2005, 2006}}, fcfg);
  auto tb = s.build();
  auto& gen_tx = tb->port("gen_tx");
  mc::TimestamperConfig cfg;
  cfg.sample_interval_ps = 100 * ms::kPsPerUs;
  cfg.hist_bin_ps = 50'000;  // 50 ns latency bins
  cfg.seed = seed;

  // Both mechanisms sample latency the same way: an ordinary packet of the
  // load stream gets its PTP type flipped into the timestampable range, so
  // the measured packets are part of the pattern (Section 6.4).
  std::unique_ptr<mc::SimLoadGen> gen;
  if (crc_mode) {
    gen = mc::SimLoadGen::crc_paced(gen_tx.tx_queue(0), background_frame(),
                                    std::make_unique<mc::CbrPattern>(mpps), 10'000);
  } else {
    auto& q = gen_tx.tx_queue(0);
    q.set_rate_mpps(mpps, 100);
    gen = mc::SimLoadGen::hardware_paced(q, background_frame());
  }
  auto ts = std::make_unique<mc::Timestamper>(tb->engine(), gen_tx, *gen, stamped_frame(),
                                              tb->port("sink"), cfg);
  ts->start();
  tb->run_until(duration);
  ts->stop();

  const auto& h = ts->histogram();
  return Quartiles{static_cast<double>(h.percentile(25)) / 1e6,
                   static_cast<double>(h.percentile(50)) / 1e6,
                   static_cast<double>(h.percentile(75)) / 1e6, ts->samples()};
}

}  // namespace

int main() {
  const auto duration =
      static_cast<ms::SimTime>(300.0 * moongen::bench::bench_scale()) * ms::kPsPerMs;
  std::printf("Figure 10: CBR via hardware rate control vs CRC-based software rate\n");
  std::printf("control — relative deviation of forwarding-latency quartiles\n");
  std::printf("(OVS-like DuT, %.0f ms per point; paper: deviations within ~1.2 sigma of 0%%)\n\n",
              ms::to_seconds(duration) * 1e3);

  const int runs = std::max(1, static_cast<int>(3 * moongen::bench::bench_scale()));
  std::printf("  %-12s %38s\n", "load [Mpps]",
              "rel. deviation mean +- stddev over runs [%] (q25 / median / q75)");
  for (double mpps : {0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 1.7, 1.9}) {
    moongen::stats::RunningStats d25, d50, d75;
    for (int run = 0; run < runs; ++run) {
      const auto seed = static_cast<std::uint64_t>(run) * 101;
      const auto hw = measure(mpps, false, duration, seed + 11);
      const auto crc = measure(mpps, true, duration, seed + 22);
      d25.add((crc.q25_us - hw.q25_us) / hw.q25_us * 100.0);
      d50.add((crc.q50_us - hw.q50_us) / hw.q50_us * 100.0);
      d75.add((crc.q75_us - hw.q75_us) / hw.q75_us * 100.0);
    }
    std::printf("  %-12.2f %8.2f +- %-5.2f %8.2f +- %-5.2f %8.2f +- %-5.2f\n", mpps, d25.mean(),
                d25.stddev(), d50.mean(), d50.stddev(), d75.mean(), d75.stddev());
  }
  std::printf("\n(the CRC-based mechanism loads the DuT with invalid packets; matching\n");
  std::printf(" latencies show the DuT does not notice them — Section 8.2)\n");
  return 0;
}
