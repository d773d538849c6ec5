// inter-arrival-times: measure a generator's timing precision with an
// Intel 82580, which can timestamp every received packet in hardware
// (paper Sections 6 and 7.3).
//
// Generates CBR traffic at GbE with a selectable rate-control mechanism and
// prints the inter-arrival histogram — the measurement behind Table 4 and
// Figure 8.
//
// With `--json FILE` the final measurement (sample count, micro-burst
// fraction, the within-window fractions) is exported as a one-snapshot
// telemetry series; stdout is unchanged.
//
// Usage: inter_arrival_times [kpps] [mechanism: hw|crc|pktgen|zsend]
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "baseline/sw_paced.hpp"
#include "cli.hpp"
#include "core/rate_control.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/registry.hpp"
#include "testbed/scenario.hpp"
#include "topologies.hpp"
#include "wire/recorder.hpp"

namespace mb = moongen::baseline;
namespace mc = moongen::core;
namespace me = moongen::examples;
namespace ms = moongen::sim;
namespace mt = moongen::telemetry;
namespace mtb = moongen::testbed;
namespace mw = moongen::wire;
namespace topo = moongen::topologies;

namespace {

constexpr const char* kUsage =
    "usage: inter_arrival_times [kpps] [mechanism: hw|crc|pktgen|zsend]\n"
    "                           [--json FILE] [--faults SPEC] [--seed N]\n";

}  // namespace

int main(int argc, char** argv) {
  const auto cli = me::parse_cli(argc, argv, kUsage);
  if (!cli) return 2;
  const double kpps = cli->number(0, 500.0);
  const std::string mechanism = cli->arg(1, "hw");
  const double mpps = kpps / 1e3;
  std::printf("inter-arrival-times: %.0f kpps via '%s' rate control, GbE, 82580 capture\n\n",
              kpps, mechanism.c_str());

  mtb::Scenario s;
  s.seed(cli->seed).faults(cli->faults).telemetry(false);
  topo::gbe_pair(s, {.device_seeds = {7, 8}, .link_seeds = {9}});
  auto tb = s.build();
  auto& tx = tb->port("tx");
  mw::InterArrivalRecorder recorder(tb->port("rx"), 0);

  mc::UdpTemplateOptions opts;
  opts.frame_size = 60;
  const auto frame = mc::make_udp_frame(opts);

  std::unique_ptr<mc::SimLoadGen> gen;
  std::unique_ptr<mb::PktgenLikePacer> pktgen;
  std::unique_ptr<mb::ZsendLikePacer> zsend;
  if (mechanism == "hw") {
    tx.tx_queue(0).set_rate_mpps(mpps, 64);
    gen = mc::SimLoadGen::hardware_paced(tx.tx_queue(0), frame);
  } else if (mechanism == "crc") {
    gen = mc::SimLoadGen::crc_paced(tx.tx_queue(0), frame,
                                    std::make_unique<mc::CbrPattern>(mpps), 1'000);
  } else if (mechanism == "pktgen") {
    pktgen = std::make_unique<mb::PktgenLikePacer>(tb->engine(0), tx.tx_queue(0), frame,
                                                   mb::PktgenLikePacer::Config{.mpps = mpps});
    pktgen->start();
  } else if (mechanism == "zsend") {
    zsend = std::make_unique<mb::ZsendLikePacer>(tb->engine(0), tx.tx_queue(0), frame,
                                                 mb::ZsendLikePacer::Config{.mpps = mpps});
    zsend->start();
  } else {
    std::fprintf(stderr, "unknown mechanism '%s' (hw|crc|pktgen|zsend)\n", mechanism.c_str());
    return 1;
  }

  tb->run_until(ms::kPsPerSec);  // one second

  const auto target = static_cast<ms::SimTime>(1e6 / mpps);
  std::printf("%llu packets captured\n",
              static_cast<unsigned long long>(recorder.samples() + 1));
  std::printf("micro-bursts: %.2f %%\n", recorder.micro_burst_fraction() * 100.0);
  for (ms::SimTime w : {64'000u, 128'000u, 256'000u, 512'000u}) {
    std::printf("within +-%3llu ns of target: %.1f %%\n",
                static_cast<unsigned long long>(w / 1000),
                recorder.fraction_within(target, w) * 100.0);
  }
  std::printf("\nhistogram (64 ns bins, >0.5%% only):\n");
  recorder.histogram().print(std::cout, 0.005);

  if (cli->has_json()) {
    mt::MetricRegistry registry;
    registry.set_gauge("interarrival.target_gap_ps", static_cast<double>(target));
    registry.set_gauge("interarrival.samples", static_cast<double>(recorder.samples() + 1));
    registry.set_gauge("interarrival.micro_burst_fraction", recorder.micro_burst_fraction());
    for (ms::SimTime w : {64'000u, 128'000u, 256'000u, 512'000u}) {
      registry.set_gauge("interarrival.within_" + std::to_string(w / 1000) + "ns",
                         recorder.fraction_within(target, w));
    }
    const std::vector<mt::Snapshot> series{registry.snapshot(ms::kPsPerSec / 1'000)};
    if (mt::dump_json_series_to_file(cli->json_path, series))
      std::fprintf(stderr, "telemetry written to %s\n", cli->json_path.c_str());
    else
      std::fprintf(stderr, "failed to write telemetry to %s\n", cli->json_path.c_str());
  }
  return 0;
}
