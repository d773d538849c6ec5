// timestamps: measure latency over a cable with hardware timestamping —
// the equivalent of the paper's timestamps.lua (Section 9, used for the
// Table 3 accuracy evaluation).
//
// Usage: timestamps [cable_m] [fiber|copper] [samples]
#include <cstdio>

#include "cli.hpp"
#include "core/rate_control.hpp"
#include "core/timestamper.hpp"
#include "nic/chip.hpp"
#include "testbed/scenario.hpp"
#include "wire/cable.hpp"

namespace mc = moongen::core;
namespace me = moongen::examples;
namespace mn = moongen::nic;
namespace ms = moongen::sim;
namespace mtb = moongen::testbed;
namespace mw = moongen::wire;

namespace {

constexpr const char* kUsage = "usage: timestamps [cable_m] [fiber|copper] [samples] [--seed N]\n";

}  // namespace

int main(int argc, char** argv) {
  const auto cli = me::parse_cli(argc, argv, kUsage);
  if (!cli) return 2;
  const double cable_m = cli->number(0, 8.5);
  const bool fiber = cli->positional.size() <= 1 || cli->arg(1) == "fiber";
  const auto samples = static_cast<unsigned long long>(cli->number(2, 100'000));
  std::printf("timestamps: %.1f m %s loopback, %llu samples\n\n", cable_m,
              fiber ? "OM3 fiber (82599)" : "Cat 5e copper (X540)", samples);

  // The timestamper injects on port a and reads back on port b, and both
  // share one oscillator — they must live on one engine (couple).
  const auto chip = fiber ? mn::intel_82599() : mn::intel_x540();
  auto tb = mtb::Scenario()
                .seed(cli->seed)
                .telemetry(false)
                .device(0, chip).name("a").with_seed(1)
                .device(1, chip).name("b").with_seed(2)
                .link(0, 1).cable(fiber ? mw::fiber_om3(cable_m) : mw::cat5e_10gbaset(cable_m))
                .with_seed(3)
                .couple(0, 1)
                .build();
  auto& a = tb->port("a");
  auto& b = tb->port("b");
  b.ptp_clock() = a.ptp_clock();  // one oscillator per card

  mc::TimestamperConfig cfg;
  cfg.sample_interval_ps = 3'300;
  cfg.sync_clocks_each_sample = false;
  cfg.hist_bin_ps = 100;
  cfg.hist_max_ps = 100 * ms::kPsPerUs;  // ~20 km of fiber
  mc::Timestamper ts(tb->engine(0), a, 0, b, mc::make_ptp_ethernet_frame(80), cfg);
  ts.start();
  tb->run_until(static_cast<ms::SimTime>(samples) * 250'000);
  ts.stop();

  std::printf("samples: %llu (lost %llu)\n",
              static_cast<unsigned long long>(ts.samples()),
              static_cast<unsigned long long>(ts.lost()));
  std::printf("latency: mean %.1f ns, median %.1f ns, min %.1f, max %.1f\n",
              ts.latency_ns().mean(), static_cast<double>(ts.histogram().median()) / 1e3,
              ts.latency_ns().min(), ts.latency_ns().max());
  std::printf("\ndistribution (NIC timer granularity: %.1f ns):\n",
              static_cast<double>(chip.ptp_increment_ps) / 1e3);
  const auto& h = ts.histogram();
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    if (h.bucket(i) == 0) continue;
    const double frac = static_cast<double>(h.bucket(i)) / static_cast<double>(h.total());
    if (frac < 0.001) continue;
    std::printf("  %7.1f ns  %5.1f %%\n", static_cast<double>(h.bucket_lower(i)) / 1e3,
                frac * 100.0);
  }
  return 0;
}
