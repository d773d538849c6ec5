// l2-load-latency: load a device under test and measure its forwarding
// latency with hardware timestamping — the workhorse script of the paper
// (used for Figures 10/11 and most latency results).
//
// Runs in the virtual-time simulation: an X540 generator port sends CBR
// load through an Open vSwitch-like forwarder; a timestamping task samples
// packets of the stream (PTP type flip, Section 6.4) and reports latency
// percentiles from the hardware timestamps.
//
// With `poisson` as the third argument it becomes the paper's
// l2-poisson-load-latency.lua: the Poisson pattern requires the CRC-based
// software rate control (Section 8.3).
//
// With `--json FILE` the testbed samples the telemetry registry (port
// TX/RX counters, load generator valid/gap split, latency histogram) every
// 100 ms of virtual time from t=0 (Scenario::sample_telemetry); the series
// plus one final snapshot with the end-of-run gauges is written as JSON
// (schema in DESIGN.md, "Telemetry"); stdout is unchanged.
//
// With `--faults SPEC` a deterministic fault plane is installed on the
// testbed (frame loss/corruption/reordering, link flaps, DuT stalls, clock
// faults — see src/fault/fault.hpp for the spec mini-language); fault and
// recovery counters are printed and exported with the telemetry.
//
// `--shards N` is accepted, but the cables join generator+sink and the DuT
// pair into one component, and a component runs on one event engine
// (DESIGN.md Section 10). The output is byte-identical to --shards 1.
#include <cstdio>
#include <memory>
#include <string_view>

#include "cli.hpp"
#include "core/rate_control.hpp"
#include "core/timestamper.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/registry.hpp"
#include "testbed/scenario.hpp"
#include "topologies.hpp"

namespace mc = moongen::core;
namespace me = moongen::examples;
namespace ms = moongen::sim;
namespace mt = moongen::telemetry;
namespace mtb = moongen::testbed;
namespace topo = moongen::topologies;

namespace {

constexpr const char* kUsage =
    "usage: l2_load_latency [rate_mpps] [seconds] [cbr|poisson]\n"
    "                       [--json FILE] [--faults SPEC] [--seed N] [--shards N]\n"
    "                       [--stream FILE]\n";

}  // namespace

int main(int argc, char** argv) {
  const auto cli = me::parse_cli(argc, argv, kUsage);
  if (!cli) return 2;
  const double rate_mpps = cli->number(0, 1.0);
  const double seconds = cli->number(1, 1.0);
  const bool poisson = cli->arg(2) == "poisson";
  std::printf("l2-load-latency: %.2f Mpps %s through an OVS-like DuT, %.1f s\n\n", rate_mpps,
              poisson ? "Poisson" : "CBR", seconds);

  // Testbed: generator -> DuT -> sink (all X540 at 10 GbE). Only the
  // sink's RX is an end-to-end RTT measurement point.
  mtb::Scenario scenario;
  scenario.seed(cli->seed).shards(cli->shards).faults(cli->faults);
  topo::forwarder_path(scenario, {.device_seeds = {1, 2, 3, 4}, .link_seeds = {5, 6}});
  if (cli->has_json()) scenario.sample_telemetry(100'000'000);
  if (cli->has_stream()) scenario.stream_telemetry(cli->stream_path, 100'000'000);
  auto tb = scenario.build();
  mt::MetricRegistry& registry = tb->registry();
  registry.set_gauge("load.offered_mpps", rate_mpps);

  // Background load: UDP packets carrying a PTP payload with a type the
  // timestamp units ignore.
  mc::UdpTemplateOptions bg;
  bg.frame_size = 96;
  bg.ptp_payload = true;
  bg.ptp_message_type = 5;
  auto& gen_tx = tb->port("gen_tx");
  auto& queue = gen_tx.tx_queue(0);
  std::unique_ptr<mc::SimLoadGen> gen;
  if (poisson) {
    gen = mc::SimLoadGen::crc_paced(queue, mc::make_udp_frame(bg),
                                    std::make_unique<mc::PoissonPattern>(rate_mpps, 77),
                                    10'000);
  } else {
    queue.set_rate_mpps(rate_mpps, 100);
    gen = mc::SimLoadGen::hardware_paced(queue, mc::make_udp_frame(bg));
  }
  gen->bind_telemetry(registry, "loadgen");

  // Timestamping task: flip every sampled packet's PTP type into the
  // stampable range. It touches gen_tx and sink directly, so it lives on
  // their (shared) engine.
  mc::UdpTemplateOptions stamped = bg;
  stamped.ptp_message_type = 0;
  mc::TimestamperConfig cfg;
  cfg.sample_interval_ps = 100 * ms::kPsPerUs;
  cfg.hist_bin_ps = 50'000;
  mc::Timestamper ts(tb->engine(0), gen_tx, *gen, mc::make_udp_frame(stamped),
                     tb->port("sink"), cfg);
  ts.bind_telemetry(registry, "timestamper");
  ts.start();

  tb->run_until(static_cast<ms::SimTime>(seconds * 1e12));
  ts.stop();

  auto& forwarder = tb->forwarder();
  auto& dut_in = tb->port("dut_in");
  const auto& h = ts.histogram();
  std::printf("load:     %.2f Mpps offered, %.2f Mpps forwarded\n", rate_mpps,
              static_cast<double>(forwarder.forwarded()) / seconds / 1e6);
  std::printf("samples:  %llu timestamped packets (%llu lost)\n",
              static_cast<unsigned long long>(ts.samples()),
              static_cast<unsigned long long>(ts.lost()));
  std::printf("latency:  min %.2f us / p25 %.2f / median %.2f / p75 %.2f / p99 %.2f / max %.2f\n",
              ts.latency_ns().min() / 1e3, static_cast<double>(h.percentile(25)) / 1e6,
              static_cast<double>(h.percentile(50)) / 1e6,
              static_cast<double>(h.percentile(75)) / 1e6,
              static_cast<double>(h.percentile(99)) / 1e6, ts.latency_ns().max() / 1e3);
  // Always-on in-path RTT plane: every frame's end-to-end latency, not just
  // the timestamper's samples. Deterministic across shard counts and
  // unchanged by --stream (virtual-time values, commutative merges).
  {
    auto& plane = tb->rtt_plane();
    const auto cum = plane.cumulative();
    std::printf("rtt:      %llu frames in-path, p50 %.2f us / p99 %.2f / p99.9 %.2f "
                "(%llu windows, %llu dropped)\n",
                static_cast<unsigned long long>(plane.recorded()),
                static_cast<double>(cum.percentile(50.0)) / 1e3,
                static_cast<double>(cum.percentile(99.0)) / 1e3,
                static_cast<double>(cum.percentile(99.9)) / 1e3,
                static_cast<unsigned long long>(plane.windows_closed()),
                static_cast<unsigned long long>(plane.dropped()));
  }
  std::printf("DuT:      %llu interrupts, %llu polls, RX drops %llu\n",
              static_cast<unsigned long long>(forwarder.interrupts()),
              static_cast<unsigned long long>(forwarder.polls()),
              static_cast<unsigned long long>(dut_in.stats().rx_ring_drops));
  if (tb->has_faults()) {
    auto& l1 = tb->link(0, 1);
    std::printf("faults:   %llu injected (l1: %llu lost / %llu corrupt / %llu flaps, "
                "dut stalls %llu, crc errors %llu)\n",
                static_cast<unsigned long long>(tb->fault_fires()),
                static_cast<unsigned long long>(l1.fault_drops() + l1.flap_drops()),
                static_cast<unsigned long long>(l1.corrupted()),
                static_cast<unsigned long long>(l1.flaps()),
                static_cast<unsigned long long>(forwarder.stalls()),
                static_cast<unsigned long long>(dut_in.stats().crc_errors));
    // Flaps pause the link's *transmitting* port, so resumes land on
    // gen_tx/dut_out (l1/l2 senders); sum every port to catch both.
    std::printf("recover:  %llu link resumes, %llu timestamper resyncs\n",
                static_cast<unsigned long long>(
                    gen_tx.stats().link_up_events + dut_in.stats().link_up_events +
                    tb->port("dut_out").stats().link_up_events +
                    tb->port("sink").stats().link_up_events),
                static_cast<unsigned long long>(ts.resyncs()));
  }

  if (cli->has_json()) {
    registry.set_gauge("load.forwarded_mpps",
                       static_cast<double>(forwarder.forwarded()) / seconds / 1e6);
    registry.set_gauge("dut.interrupts", static_cast<double>(forwarder.interrupts()));
    registry.set_gauge("dut.polls", static_cast<double>(forwarder.polls()));
    auto series = tb->series();
    series.push_back(tb->snapshot());  // final snapshot incl. the end-of-run gauges
    if (mt::dump_json_series_to_file(cli->json_path, series))
      std::fprintf(stderr, "telemetry series written to %s\n", cli->json_path.c_str());
    else
      std::fprintf(stderr, "failed to write telemetry series to %s\n", cli->json_path.c_str());
  }
  if (cli->has_stream() && tb->stream() != nullptr) {
    std::fprintf(stderr, "telemetry streamed to %s (%llu ticks, %llu rtt windows)\n",
                 cli->stream_path.c_str(),
                 static_cast<unsigned long long>(tb->stream()->ticks()),
                 static_cast<unsigned long long>(tb->stream()->windows_streamed()));
  }
  return 0;
}
