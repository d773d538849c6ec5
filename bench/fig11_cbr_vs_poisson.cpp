// Reproduces Figure 11: forwarding latency of Open vSwitch under CBR and
// Poisson traffic (Section 8.3).
//
// CBR comes from the NIC's hardware rate control; the Poisson process is
// only possible with MoonGen's CRC-based software rate control. The paper
// observes: Poisson latencies (median and quartiles) ramp up well before
// saturation because bursts temporarily overload the DuT's buffers; CBR
// stays low until the DuT saturates at ~1.9 Mpps, where both patterns hit
// the buffer-bound latency of ~2 ms and achieve the same throughput.
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
  opts.ptp_message_type = 5;
  return mc::make_udp_frame(opts);
}

mn::Frame stamped_frame() {
  mc::UdpTemplateOptions opts;
  opts.frame_size = 96;
  opts.ptp_payload = true;
  opts.ptp_message_type = 0;
  return mc::make_udp_frame(opts);
}

struct Point {
  double q25_us, q50_us, q75_us;
  double achieved_mpps;
  std::uint64_t lost;
};

Point measure(double mpps, bool poisson, ms::SimTime duration) {
  mtb::Scenario s;
  s.telemetry(false);
  topo::forwarder_path(s, {.device_seeds = {2001, 2002, 2003, 2004}, .link_seeds = {2005, 2006}});
  auto tb = s.build();
  auto& gen_tx = tb->port("gen_tx");
  mc::TimestamperConfig cfg;
  cfg.sample_interval_ps = 100 * ms::kPsPerUs;
  cfg.hist_bin_ps = 50'000;
  cfg.timeout_ps = 30 * ms::kPsPerMs;

  // Both patterns sample latency by marking ordinary stream packets as
  // timestampable (Section 6.4).
  std::unique_ptr<mc::SimLoadGen> gen;
  if (poisson) {
    gen = mc::SimLoadGen::crc_paced(gen_tx.tx_queue(0), background_frame(),
                                    std::make_unique<mc::PoissonPattern>(mpps, 4242), 10'000);
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
  return Point{static_cast<double>(h.percentile(25)) / 1e6,
               static_cast<double>(h.percentile(50)) / 1e6,
               static_cast<double>(h.percentile(75)) / 1e6,
               static_cast<double>(tb->forwarder().forwarded()) / ms::to_seconds(duration) / 1e6,
               ts->lost()};
}

}  // namespace

int main() {
  const auto duration =
      static_cast<ms::SimTime>(300.0 * moongen::bench::bench_scale()) * ms::kPsPerMs;
  std::printf("Figure 11: Forwarding latency of Open vSwitch, CBR vs Poisson\n");
  std::printf("(%.0f ms per point; paper: Poisson ramps up before saturation, CBR stays\n",
              ms::to_seconds(duration) * 1e3);
  std::printf(" low; both hit ~2 ms buffer-bound latency at the ~1.9 Mpps overload point)\n\n");

  std::printf("  %-12s | %28s | %28s | %18s\n", "load [Mpps]", "CBR q25/median/q75 [us]",
              "Poisson q25/median/q75 [us]", "fwd Mpps cbr/poi");
  for (double mpps : {0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 1.7, 1.9, 2.0}) {
    const auto cbr = measure(mpps, false, duration);
    const auto poi = measure(mpps, true, duration);
    std::printf("  %-12.2f | %8.1f %9.1f %9.1f | %8.1f %9.1f %9.1f | %8.2f %8.2f\n", mpps,
                cbr.q25_us, cbr.q50_us, cbr.q75_us, poi.q25_us, poi.q50_us, poi.q75_us,
                cbr.achieved_mpps, poi.achieved_mpps);
  }
  return 0;
}
