// ddos-isolation: multi-tenant virtual switch under a DDoS burst train —
// does per-tenant token-bucket shaping keep the victim's tail latency flat
// while an attacker floods the shared vport?
//
// Topology (virtual time, byte-identical across --shards 1/2/4):
//
//   gen ──link── vs_in ═[VSwitch]═╦═ vport0 (1 GbE) ──link── sink0
//                                 ╚═ vport1 (10 GbE) ─link── sink1
//
// The vswitch and the cables join all six ports into one component, so
// every --shards runs the testbed on one event engine (DESIGN.md
// Section 10).
//
// Three traffic classes share the generator, one TX queue each:
//   q0  victim    CBR (hardware-paced), VLAN 10, Frame.flow 1 -> vport0
//   q1  attacker  periodic burst trains with a 64 B trigger / 1024 B
//                 amplification pattern, CRC-gap rate control places the
//                 bursts (Section 8.1/8.3), VLAN 20, flow 2 -> vport0
//   q2  background thousands of tenants, Poisson aggregate via CRC gaps,
//                 VLANs 100.., flow 3 -> vport1
//
// The attacker tenant is policed to `shape_mbit` at switch ingress; victim
// and attacker share the congested 1 GbE vport0, so with shaping off
// (shape_mbit 0) the flood takes the vport and the victim's p99 explodes.
// Per-tenant latency comes from the always-on RTT plane's flow groups; the
// vswitch conservation checker runs in the health plane throughout.
//
// Reported and gated by CI: shaping accuracy (attacker emitted rate vs.
// target, within 1%), victim p99 under attack, zero health violations.
//
// `--faults SPEC` drives attacker flap dynamics and switch fault sites, e.g.
//   --faults "stall@vswitch.stall:p=0.001;loss@vswitch.drop:p=0.01"
// `--stream FILE` streams per-window RTT groups (per-tenant quantiles).
// `--json FILE` writes the registry snapshot series the testbed samples
// every 100 ms of virtual time from t=0, plus one final snapshot with the
// end-of-run gauges (schema in DESIGN.md, "Telemetry"); stdout is unchanged.
#include <cstdio>
#include <memory>
#include <vector>

#include "cli.hpp"
#include "core/rate_control.hpp"
#include "dut/vswitch.hpp"
#include "health/monitor.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/rtt_plane.hpp"
#include "testbed/scenario.hpp"
#include "topologies.hpp"

namespace mc = moongen::core;
namespace md = moongen::dut;
namespace me = moongen::examples;
namespace mh = moongen::health;
namespace mn = moongen::nic;
namespace ms = moongen::sim;
namespace mt = moongen::telemetry;
namespace mtb = moongen::testbed;
namespace topo = moongen::topologies;

namespace {

constexpr const char* kUsage =
    "usage: ddos_isolation [attack_mbit] [shape_mbit] [seconds] [tenants]\n"
    "                      [--json FILE] [--faults SPEC] [--seed N] [--shards N]\n"
    "                      [--stream FILE]\n"
    "  attack_mbit  attacker offered load, burst trains (default 8000)\n"
    "  shape_mbit   attacker tenant's token-bucket rate, 0 = unshaped (default 200)\n"
    "  tenants      number of background tenants (default 2000)\n";

constexpr std::uint32_t kVictimFlow = 1;
constexpr std::uint32_t kAttackFlow = 2;
constexpr std::uint32_t kBackgroundFlow = 3;

mn::Frame tenant_frame(std::uint16_t vid, std::size_t frame_size, std::uint32_t flow,
                       std::uint8_t pcp = 0) {
  mc::UdpTemplateOptions opts;
  opts.frame_size = frame_size;
  opts.vlan = true;
  opts.vlan_vid = vid;
  opts.vlan_pcp = pcp;
  opts.flow = flow;
  return mc::make_udp_frame(opts);
}

void print_group(const char* label, const mt::RttPlane& plane, std::uint32_t flow) {
  const auto h = plane.cumulative_group(flow);
  std::printf("%s %llu frames, p50 %.2f us / p99 %.2f / p99.9 %.2f\n", label,
              static_cast<unsigned long long>(h.total()),
              static_cast<double>(h.percentile(50.0)) / 1e3,
              static_cast<double>(h.percentile(99.0)) / 1e3,
              static_cast<double>(h.percentile(99.9)) / 1e3);
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = me::parse_cli(argc, argv, kUsage);
  if (!cli) return 2;
  const double attack_mbit = cli->number(0, 8'000.0);
  const double shape_mbit = cli->number(1, 200.0);
  const double seconds = cli->number(2, 0.5);
  const int tenants = static_cast<int>(cli->number(3, 2'000.0));
  if (tenants < 1 || tenants > 3'900) {
    std::fprintf(stderr, "tenants must be in [1, 3900] (12-bit VID space)\n");
    return 2;
  }
  const double victim_mbit = 100.0;
  const double background_mbit = 1'000.0;
  std::printf("ddos-isolation: attacker %.0f Mbit burst trains, %s, %d background tenants, %.1f s\n\n",
              attack_mbit,
              shape_mbit > 0.0 ? "shaped" : "UNSHAPED", tenants, seconds);

  // --- tenant table ---------------------------------------------------------
  // Victim and attacker share vport0 at the same DRR priority: isolation must
  // come from the shaper, not the scheduler. Background tenants go to vport1
  // at a lower class, each with a small token bucket of its own.
  md::VSwitchConfig cfg;
  md::TenantConfig victim;
  victim.vid = 10;
  victim.vport = 0;
  victim.priority = 0;
  victim.flow = kVictimFlow;
  md::TenantConfig attacker;
  attacker.vid = 20;
  attacker.vport = 0;
  attacker.priority = 0;
  attacker.flow = kAttackFlow;
  attacker.rate_mbit = shape_mbit;  // 0 = unlimited
  attacker.burst_bytes = 16'000;
  cfg.tenants = {victim, attacker};
  for (int i = 0; i < tenants; ++i) {
    md::TenantConfig t;
    t.vid = static_cast<std::uint16_t>(100 + i);
    t.vport = 1;
    t.priority = 4;
    t.flow = kBackgroundFlow;
    t.rate_mbit = 2.0 * background_mbit / tenants;  // 2x fair share each
    t.burst_bytes = 4'000;
    cfg.tenants.push_back(t);
  }
  cfg.flood_vport = 1;

  // --- testbed --------------------------------------------------------------
  // The vswitch couples vs_in and its vports, and the cables join gen and
  // both sinks: one component, so every --shards runs one engine and the
  // virtual timeline is the same.
  mtb::Scenario scenario;
  scenario.seed(cli->seed).shards(cli->shards).faults(cli->faults).rtt_groups(4);
  topo::vswitch_fanout(scenario, {.device_seeds = {1, 2, 3, 4, 5, 6}, .link_seeds = {7, 8, 9}},
                       {{.link_mbit = 1'000, .latency_ns = 25'000}, {.latency_ns = 5'000}}, cfg);
  if (cli->has_json()) scenario.sample_telemetry(100'000'000);
  if (cli->has_stream()) scenario.stream_telemetry(cli->stream_path, 100'000'000);
  auto tb = scenario.build();
  mt::MetricRegistry& registry = tb->registry();

  // --- load ----------------------------------------------------------------
  auto& gen = tb->port("gen");
  // Victim: plain CBR, hardware rate control.
  auto& victim_q = gen.tx_queue(0);
  victim_q.set_rate_wire_mbit(victim_mbit);
  auto victim_gen =
      mc::SimLoadGen::hardware_paced(victim_q, tenant_frame(10, 128, kVictimFlow));
  victim_gen->bind_telemetry(registry, "loadgen.victim");

  // Attacker: periodic burst trains of an amplification pattern — a small
  // trigger frame alternating with the large amplified answer. CRC-gap rate
  // control places each burst precisely on the 10 GbE wire.
  const double attack_wire_bytes = ((64.0 + 20.0) + (1'024.0 + 20.0)) / 2.0;
  const double attack_mpps = attack_mbit / (attack_wire_bytes * 8.0);
  auto attack_gen = mc::SimLoadGen::crc_paced(
      gen.tx_queue(1), tenant_frame(20, 64, kAttackFlow),
      std::make_unique<mc::BurstPattern>(attack_mpps, 128,
                                         static_cast<std::size_t>(attack_wire_bytes),
                                         10'000),
      10'000);
  attack_gen->set_templates(
      {tenant_frame(20, 64, kAttackFlow), tenant_frame(20, 1'024, kAttackFlow)});
  attack_gen->bind_telemetry(registry, "loadgen.attacker");

  // Background: Poisson aggregate cycling through every tenant VID.
  const double bg_mpps = background_mbit / ((128.0 + 20.0) * 8.0);
  std::vector<mn::Frame> bg_templates;
  bg_templates.reserve(static_cast<std::size_t>(tenants));
  for (int i = 0; i < tenants; ++i)
    bg_templates.push_back(
        tenant_frame(static_cast<std::uint16_t>(100 + i), 128, kBackgroundFlow));
  auto bg_gen = mc::SimLoadGen::crc_paced(
      gen.tx_queue(2), bg_templates.front(),
      std::make_unique<mc::PoissonPattern>(bg_mpps, 77), 10'000);
  bg_gen->set_templates(std::move(bg_templates));
  bg_gen->bind_telemetry(registry, "loadgen.background");

  // --- health plane ---------------------------------------------------------
  // Default checkers include vswitch frame conservation; a violation at any
  // 1 ms window tick fails the run (CI gates on this line).
  const auto end_ps = static_cast<ms::SimTime>(seconds * 1e12);
  mh::MonitorConfig hc;
  hc.window_ps = 1 * ms::kPsPerMs;
  mh::HealthMonitor mon(*tb, hc);
  mon.start(end_ps);

  tb->run_until(end_ps);

  // --- report (virtual-time values only: identical across shard counts) -----
  auto& vsw = tb->vswitch();
  std::printf("switch:   %llu received, %llu matched, %llu flooded, %llu shaped drops, "
              "%llu queue drops\n",
              static_cast<unsigned long long>(vsw.received()),
              static_cast<unsigned long long>(vsw.matched()),
              static_cast<unsigned long long>(vsw.flooded()),
              static_cast<unsigned long long>(vsw.shaped_drops()),
              static_cast<unsigned long long>(vsw.queue_drops()));

  const auto attacker_books = vsw.tenant_counters(1);
  const double attacker_emitted_mbit =
      static_cast<double>(attacker_books.emitted_wire_bytes) * 8.0 / 1e6 / seconds;
  if (shape_mbit > 0.0) {
    const double err_pct = (attacker_emitted_mbit - shape_mbit) / shape_mbit * 100.0;
    std::printf("shaping:  attacker emitted %.2f Mbit/s against a %.0f Mbit/s bucket "
                "(error %.3f%%)\n",
                attacker_emitted_mbit, shape_mbit, err_pct);
  } else {
    std::printf("shaping:  off — attacker emitted %.2f Mbit/s into the shared vport\n",
                attacker_emitted_mbit);
  }

  const auto& plane = tb->rtt_plane();
  print_group("victim:  ", plane, kVictimFlow);
  print_group("attacker:", plane, kAttackFlow);
  print_group("backgrnd:", plane, kBackgroundFlow);

  if (tb->has_faults()) {
    std::printf("faults:   %llu injected (vswitch drops %llu, stalls %llu)\n",
                static_cast<unsigned long long>(tb->fault_fires()),
                static_cast<unsigned long long>(vsw.fault_drops()),
                static_cast<unsigned long long>(vsw.stalls()));
  }
  // checks_run scales with the shard count (each shard's registry ticks its
  // own checkers), so it goes to stderr; stdout stays byte-identical.
  const auto& violations = mon.violations();
  std::printf("health:   %zu violations\n", violations.size());
  std::fprintf(stderr, "health:   %llu checks run\n",
               static_cast<unsigned long long>(mon.checkers().checks_run()));
  for (const auto& v : violations)
    std::printf("  %s: %s\n", v.checker.c_str(), v.detail.c_str());

  if (cli->has_json()) {
    registry.set_gauge("attacker.emitted_mbit", attacker_emitted_mbit);
    auto series = tb->series();
    series.push_back(tb->snapshot());
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
  return violations.empty() ? 0 : 1;
}
