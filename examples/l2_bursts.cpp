// l2-bursts: generate bursty traffic with the CRC-based rate control
// (the equivalent of the paper's l2-bursts.lua, Section 9).
//
// Bursts of back-to-back packets at a configurable average rate; the
// receiving 82580 timestamps every packet so the burst structure is
// directly visible in the inter-arrival histogram.
//
// Usage: l2_bursts [avg_kpps] [burst_size]
#include <cstdio>
#include <iostream>
#include <memory>

#include "cli.hpp"
#include "core/rate_control.hpp"
#include "testbed/scenario.hpp"
#include "topologies.hpp"
#include "wire/recorder.hpp"

namespace mc = moongen::core;
namespace me = moongen::examples;
namespace ms = moongen::sim;
namespace mtb = moongen::testbed;
namespace mw = moongen::wire;
namespace topo = moongen::topologies;

namespace {

constexpr const char* kUsage =
    "usage: l2_bursts [avg_kpps] [burst_size] [--faults SPEC] [--seed N]\n";

}  // namespace

int main(int argc, char** argv) {
  const auto cli = me::parse_cli(argc, argv, kUsage);
  if (!cli) return 2;
  const double kpps = cli->number(0, 200.0);
  const auto burst = static_cast<std::size_t>(cli->number(1, 8));
  std::printf("l2-bursts: %zu-packet bursts at %.0f kpps average, GbE, 1 s\n\n", burst, kpps);

  mtb::Scenario s;
  s.seed(cli->seed).faults(cli->faults).telemetry(false);
  topo::gbe_pair(s, {.device_seeds = {21, 22}, .link_seeds = {23}});
  auto tb = s.build();
  auto& tx = tb->port("tx");
  mw::InterArrivalRecorder recorder(tb->port("rx"), 0);

  mc::UdpTemplateOptions opts;
  opts.frame_size = 60;
  const auto frame = mc::make_udp_frame(opts);
  auto gen = mc::SimLoadGen::crc_paced(
      tx.tx_queue(0), frame,
      std::make_unique<mc::BurstPattern>(kpps / 1e3, burst, frame.wire_bytes(), 1'000), 1'000);

  tb->run_until(ms::kPsPerSec);

  std::printf("packets: %llu valid on the wire, %llu invalid gap frames\n",
              static_cast<unsigned long long>(gen->valid_frames()),
              static_cast<unsigned long long>(gen->gap_frames()));
  std::printf("back-to-back share: %.1f %% (expected ~%.1f %% for %zu-packet bursts)\n\n",
              recorder.micro_burst_fraction() * 100.0,
              static_cast<double>(burst - 1) / static_cast<double>(burst) * 100.0, burst);
  std::printf("inter-arrival histogram (64 ns bins, >0.5%%):\n");
  recorder.histogram().print(std::cout, 0.005);
  return 0;
}
