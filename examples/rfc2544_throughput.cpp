// rfc2544-throughput: binary search for the loss-free forwarding rate of a
// device under test — the classic benchmark hardware packet generators are
// bought for (RFC 2544 [3], discussed in Section 2 of the paper).
//
// For each frame size, the search offers CBR load for a trial period and
// halves the interval on loss; latency of the final passing rate is
// sampled with hardware timestamps. This demonstrates that the commodity
// generator covers the headline use case of IXIA/Spirent appliances.
//
// With `--faults SPEC` a deterministic fault plane (src/fault) is installed
// on every trial testbed, so the binary search runs against real loss,
// corruption, flapping links and a stalling DuT instead of a perfect lab.
// The RFC 2544 criterion is unchanged — a trial passes only if the DuT
// dropped nothing — so wire faults upstream of the DuT shrink the delivered
// load while DuT-side faults (stalls, rx_overflow) shrink the loss-free rate.
//
// Usage: rfc2544_throughput [trial_seconds] [--faults SPEC] [--shards N]
#include <cstdio>
#include <memory>

#include "cli.hpp"
#include "core/rate_control.hpp"
#include "core/timestamper.hpp"
#include "nic/throughput_model.hpp"
#include "testbed/scenario.hpp"
#include "topologies.hpp"

namespace mc = moongen::core;
namespace me = moongen::examples;
namespace mn = moongen::nic;
namespace ms = moongen::sim;
namespace mtb = moongen::testbed;
namespace topo = moongen::topologies;

namespace {

constexpr const char* kUsage =
    "usage: rfc2544_throughput [trial_seconds] [--faults SPEC] [--seed N] [--shards N]\n";

struct TrialResult {
  bool loss_free;
  double forwarded_mpps;
  double median_latency_us;
  std::uint64_t faults_fired = 0;
};

TrialResult run_trial(std::size_t frame_size, double mpps, double seconds,
                      const me::Cli& cli) {
  // Per-trial testbed (and per-trial fault plane: every trial sees the same
  // seeded fault sequence, so the binary search stays deterministic and
  // comparable across rates). Telemetry is off — trials read stats directly.
  mtb::Scenario s;
  s.seed(cli.seed).shards(cli.shards).faults(cli.faults).telemetry(false);
  topo::forwarder_path(s, {.device_seeds = {11, 12, 13, 14}, .link_seeds = {15, 16}});
  auto tb = s.build();
  auto& gen_tx = tb->port("gen_tx");
  auto& dut_in = tb->port("dut_in");
  auto& sink = tb->port("sink");

  mc::UdpTemplateOptions bg;
  bg.frame_size = frame_size - 4;  // buffer length without FCS
  bg.ptp_payload = bg.frame_size >= 76;  // a 64 B frame has no room for a PTP header
  bg.ptp_message_type = 5;
  auto& queue = gen_tx.tx_queue(0);
  queue.set_rate_mpps(mpps, frame_size);
  auto gen = mc::SimLoadGen::hardware_paced(queue, mc::make_udp_frame(bg));

  // Timestampable variant of the stream packet. UDP PTP packets below 80 B
  // are refused by the timestamp units (Section 6.4), so small frames use
  // PTP-over-Ethernet probes of the same size instead.
  mn::Frame stamped_frame;
  if (frame_size >= 84) {
    mc::UdpTemplateOptions stamped = bg;
    stamped.ptp_message_type = 0;
    stamped_frame = mc::make_udp_frame(stamped);
  } else {
    stamped_frame = mc::make_ptp_ethernet_frame(frame_size - 4, 0);
  }
  mc::TimestamperConfig cfg;
  cfg.sample_interval_ps = 200 * ms::kPsPerUs;
  cfg.hist_bin_ps = 50'000;
  mc::Timestamper ts(tb->engine(0), gen_tx, *gen, stamped_frame, sink, cfg);
  ts.start();

  tb->run_until(static_cast<ms::SimTime>(seconds * 1e12));
  ts.stop();

  TrialResult r;
  // RFC 2544 throughput criterion: zero loss. In this testbed the only
  // loss point is the DuT's RX ring overflowing; packets still in flight in
  // the pipeline at the end of the trial are not losses.
  r.loss_free = dut_in.stats().rx_ring_drops == 0;
  r.forwarded_mpps = static_cast<double>(tb->forwarder().forwarded()) / seconds / 1e6;
  r.median_latency_us = static_cast<double>(ts.histogram().median()) / 1e6;
  r.faults_fired = tb->fault_fires();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = me::parse_cli(argc, argv, kUsage);
  if (!cli) return 2;
  // Short trials under-detect loss (the DuT's 4096-slot ring absorbs the
  // excess); 0.5 s is enough for the overload backlog to hit the ring.
  const double trial_s = cli->number(0, 0.5);
  std::printf("RFC 2544-style throughput search (loss-free rate, OVS-like DuT)\n");
  std::printf("trial duration %.2f s, binary search to 1%% resolution\n", trial_s);
  if (cli->has_faults())
    std::printf("fault plane: \"%s\" (seed %llu)\n", cli->faults_text.c_str(),
                static_cast<unsigned long long>(cli->faults.seed));
  std::printf("\n  %-10s %16s %16s %18s\n", "frame [B]", "line rate [Mpps]",
              "loss-free [Mpps]", "median lat. [us]");

  std::uint64_t total_faults = 0;
  for (std::size_t frame_size : {64u, 128u, 256u, 512u, 1024u, 1518u}) {
    const double line = mn::line_rate_pps(10'000, frame_size) / 1e6;
    double lo = 0.0, hi = line;
    TrialResult best{};
    // DuT capacity is ~1.94 Mpps: start the search from the line rate.
    for (int iter = 0; iter < 8 && (hi - lo) / hi > 0.01; ++iter) {
      const double mid = (lo + hi) / 2.0;
      const auto r = run_trial(frame_size, mid, trial_s, *cli);
      total_faults += r.faults_fired;
      if (r.loss_free) {
        lo = mid;
        best = r;
      } else {
        hi = mid;
      }
    }
    std::printf("  %-10zu %16.2f %16.2f %18.2f\n", frame_size, line, lo,
                best.median_latency_us);
  }
  std::printf("\n(the DuT forwards ~1.94 Mpps regardless of frame size: small frames are\n"
              " CPU-bound; large frames approach their line rate)\n");
  if (cli->has_faults())
    std::printf("faults injected across all trials: %llu\n",
                static_cast<unsigned long long>(total_faults));
  return 0;
}
