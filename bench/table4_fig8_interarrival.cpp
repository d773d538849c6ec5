// Reproduces Table 4 (rate control measurements) and Figure 8 (histograms
// of inter-arrival times).
//
// Testbed (Section 7.3): generators transmit 64 B frames at GbE through an
// X540; an Intel 82580 timestamps every received packet with 64 ns
// precision. Compared mechanisms at 500 kpps and 1000 kpps:
//   MoonGen     — hardware rate control (Section 7.2)
//   Pktgen-DPDK — software deadline pacing, one descriptor per packet
//   zsend       — software pacing with coarse wakeups (burst bug)
//
// Paper (Table 4):
//   rate     generator    bursts  +-64ns +-128ns +-256ns +-512ns
//   500kpps  MoonGen       0.02%   49.9%   74.9%   99.8%   99.8%
//            Pktgen-DPDK   0.01%   37.7%   72.3%   92.0%   94.5%
//            zsend        28.6%     3.9%    5.4%    6.4%   13.8%
//   1000kpps MoonGen       1.2%    50.5%   52.0%   97.0%  100.0%
//            Pktgen-DPDK  14.2%    36.7%   58.0%   70.6%   95.9%
//            zsend        52.0%     4.6%    7.9%   24.2%   88.1%
#include <cstdio>
#include <string>

#include "baseline/sw_paced.hpp"
#include "bench_util.hpp"
#include "core/rate_control.hpp"
#include "testbed/scenario.hpp"
#include "topologies.hpp"
#include "wire/recorder.hpp"

namespace mb = moongen::baseline;
namespace mc = moongen::core;
namespace mn = moongen::nic;
namespace ms = moongen::sim;
namespace mt = moongen::telemetry;
namespace mtb = moongen::testbed;
namespace mw = moongen::wire;
namespace topo = moongen::topologies;

namespace {

mn::Frame frame64() {
  mc::UdpTemplateOptions opts;
  opts.frame_size = 60;
  return mc::make_udp_frame(opts);
}

struct Row {
  std::string name;
  double bursts, w64, w128, w256, w512;
  mt::LogLinearHistogram hist{mt::HistogramConfig::linear(64'000, 20'000'000)};
};

Row measure(const std::string& name, double mpps, int generator,
            std::uint64_t target_packets) {
  mtb::Scenario s;
  s.telemetry(false);
  topo::gbe_pair(s, {.device_seeds = {1001, 1002}, .link_seeds = {1003}});
  auto tb = s.build();
  auto& tx = tb->port("tx").tx_queue(0);
  mw::InterArrivalRecorder recorder(tb->port("rx"), 0);
  const ms::SimTime duration =
      static_cast<ms::SimTime>(static_cast<double>(target_packets) / (mpps * 1e6) * 1e12);

  std::unique_ptr<mc::SimLoadGen> gen;
  std::unique_ptr<mb::PktgenLikePacer> pktgen;
  std::unique_ptr<mb::ZsendLikePacer> zsend;
  switch (generator) {
    case 0:  // MoonGen: hardware rate control, queue kept full
      tx.set_rate_mpps(mpps, 64);
      gen = mc::SimLoadGen::hardware_paced(tx, frame64());
      break;
    case 1:
      pktgen = std::make_unique<mb::PktgenLikePacer>(tb->engine(), tx, frame64(),
                                                     mb::PktgenLikePacer::Config{.mpps = mpps});
      pktgen->start();
      break;
    default:
      zsend = std::make_unique<mb::ZsendLikePacer>(tb->engine(), tx, frame64(),
                                                   mb::ZsendLikePacer::Config{.mpps = mpps});
      zsend->start();
      break;
  }
  tb->run_until(duration);

  const auto target = static_cast<ms::SimTime>(1e6 / mpps);
  Row row;
  row.name = name;
  row.bursts = recorder.micro_burst_fraction() * 100.0;
  row.w64 = recorder.fraction_within(target, 64'000) * 100.0;
  row.w128 = recorder.fraction_within(target, 128'000) * 100.0;
  row.w256 = recorder.fraction_within(target, 256'000) * 100.0;
  row.w512 = recorder.fraction_within(target, 512'000) * 100.0;
  row.hist.merge(recorder.histogram());
  return row;
}

void print_figure8(const Row& row, double mpps) {
  std::printf("\n  Figure 8 histogram — %s @ %.0f kpps (64 ns bins, bars ~ probability):\n",
              row.name.c_str(), mpps * 1e3);
  const auto& h = row.hist;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    if (h.bucket(i) == 0) continue;
    const double frac = static_cast<double>(h.bucket(i)) / static_cast<double>(h.total());
    if (frac < 0.005) continue;
    std::printf("    %6.2f us |", static_cast<double>(h.bucket_lower(i)) / 1e6);
    const int bar = static_cast<int>(frac * 80);
    for (int b = 0; b < bar; ++b) std::printf("#");
    std::printf(" %.1f%%\n", frac * 100.0);
  }
}

}  // namespace

int main() {
  const auto packets =
      static_cast<std::uint64_t>(1'000'000 * moongen::bench::bench_scale());
  std::printf("Table 4: Rate control measurements (GbE, 82580 capture, %llu packets/run)\n",
              static_cast<unsigned long long>(packets));

  for (double mpps : {0.5, 1.0}) {
    std::printf("\n%.0f kpps:\n", mpps * 1e3);
    std::printf("  %-22s %12s %8s %8s %8s %8s\n", "Generator", "Micro-Bursts", "+-64ns",
                "+-128ns", "+-256ns", "+-512ns");
    Row rows[3] = {
        measure("MoonGen (HW rate ctl)", mpps, 0, packets),
        measure("Pktgen-DPDK-like", mpps, 1, packets),
        measure("zsend-like", mpps, 2, packets),
    };
    for (const auto& row : rows) {
      std::printf("  %-22s %11.2f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n", row.name.c_str(),
                  row.bursts, row.w64, row.w128, row.w256, row.w512);
    }
    for (const auto& row : rows) print_figure8(row, mpps);
  }
  return 0;
}
