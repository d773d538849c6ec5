// Reproduces Figure 7: interrupt rate of a Linux/Open vSwitch forwarder
// under increasing load, generated with MoonGen (clean CBR) vs zsend
// (micro-bursts).
//
// Section 7.4: the micro-bursts of zsend trigger the driver's interrupt
// moderation much earlier than expected, so the DuT shows a *low* interrupt
// rate under bursty load — evidence that bad rate control measurably
// changes the behaviour of the tested system. MoonGen's smooth CBR yields
// an interrupt rate that rises with the offered load until NAPI polling
// takes over near saturation.
#include <cstdio>

#include "baseline/sw_paced.hpp"
#include "bench_util.hpp"
#include "core/rate_control.hpp"
#include "testbed/scenario.hpp"
#include "topologies.hpp"

namespace mb = moongen::baseline;
namespace mc = moongen::core;
namespace mn = moongen::nic;
namespace ms = moongen::sim;
namespace mtb = moongen::testbed;
namespace topo = moongen::topologies;

namespace {

mn::Frame frame64() {
  mc::UdpTemplateOptions opts;
  opts.frame_size = 60;
  return mc::make_udp_frame(opts);
}

double interrupt_rate(double mpps, bool bursty, ms::SimTime duration) {
  mtb::Scenario s;
  s.telemetry(false);
  topo::forwarder_path(s, {.device_seeds = {2001, 2002, 2003, 2004}, .link_seeds = {2005, 2006}});
  auto tb = s.build();
  auto& tx = tb->port("gen_tx").tx_queue(0);
  std::unique_ptr<mc::SimLoadGen> gen;
  std::unique_ptr<mb::ZsendLikePacer> zsend;
  if (!bursty) {
    tx.set_rate_mpps(mpps, 64);
    gen = mc::SimLoadGen::hardware_paced(tx, frame64());
  } else {
    zsend = std::make_unique<mb::ZsendLikePacer>(tb->engine(), tx, frame64(),
                                                 mb::ZsendLikePacer::Config{.mpps = mpps});
    zsend->start();
  }
  tb->run_until(duration);
  return static_cast<double>(tb->forwarder().interrupts()) / ms::to_seconds(duration);
}

}  // namespace

int main() {
  const auto duration =
      static_cast<ms::SimTime>(100.0 * moongen::bench::bench_scale()) * ms::kPsPerMs;
  std::printf("Figure 7: DuT interrupt rate vs offered load (%.0f ms per point)\n",
              ms::to_seconds(duration) * 1e3);
  std::printf("(paper: MoonGen's CBR load drives the interrupt rate up to ~1.5e5 Hz;\n");
  std::printf(" zsend's micro-bursts keep it low across the whole range)\n\n");

  std::printf("  %-14s %22s %22s\n", "load [Mpps]", "MoonGen load [int/s]", "zsend load [int/s]");
  for (double mpps : {0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0}) {
    const double smooth = interrupt_rate(mpps, false, duration);
    const double bursts = interrupt_rate(mpps, true, duration);
    std::printf("  %-14.2f %22.0f %22.0f\n", mpps, smooth, bursts);
  }
  return 0;
}
