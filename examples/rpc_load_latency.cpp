// rpc-load-latency: stateful memcache-style RPC load against a modeled
// server, with open-loop vs. closed-loop tail-latency comparison.
//
// Two independent client -> server pairs (X540 at 10 GbE, duplex cables)
// carry a get/set workload: Zipf-popular keys, exponential inter-arrivals,
// per-request sequence numbers and departure timestamps embedded in the
// payload (src/rpc/codec.hpp). The server models a configurable worker
// pool with exponentially distributed service times.
//
//   open    - departures come from the arrival process alone; a slow
//             server cannot throttle the generator, so queueing delay
//             lands in the measured tail (the coordinated-omission-free
//             number).
//   closed  - N users each wait for their response plus a think time
//             before re-issuing; the system self-throttles near
//             saturation and the tail looks deceptively flat.
//   compare - run both at the same offered load and print them side by
//             side (the open-vs-closed experiment).
//
// With `--json FILE` the testbed samples the telemetry registry
// (client/server gauges, engine counters) every 100 ms of virtual time
// from t=0 (Scenario::sample_telemetry); the series plus one final
// snapshot is written as JSON, the closed-loop run's to FILE.closed.json.
// With `--stream FILE` the same snapshots plus every closed RTT window are
// streamed to FILE (FILE.closed.jsonl for the closed-loop run). stdout is
// unchanged either way.
// With `--faults SPEC` the fault plane also drives server stalls (sites
// rpc.s0 / rpc.s1) next to the usual wire faults. Each pair's cable joins
// its client and server into one component, so with `--shards 2` or more
// the two pairs run on two parallel engines and exchange nothing; output
// is byte-identical to --shards 1.
//
// usage: rpc_load_latency [offered_krps] [seconds] [open|closed|compare]
//                         [service_us] [workers]
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cli.hpp"
#include "rpc/open_loop.hpp"
#include "rpc/server_model.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/registry.hpp"
#include "testbed/scenario.hpp"
#include "topologies.hpp"

namespace me = moongen::examples;
namespace mr = moongen::rpc;
namespace ms = moongen::sim;
namespace mt = moongen::telemetry;
namespace mtb = moongen::testbed;
namespace topo = moongen::topologies;

namespace {

constexpr const char* kUsage =
    "usage: rpc_load_latency [offered_krps] [seconds] [open|closed|compare]\n"
    "                        [service_us] [workers]\n"
    "                        [--json FILE] [--faults SPEC] [--seed N] [--shards N]\n"
    "                        [--stream FILE]\n";

constexpr int kPairs = 2;

struct RunResult {
  mr::LatencyRecorder latency;
  std::uint64_t issued = 0;
  std::uint64_t matched = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t send_drops = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t completed = 0;
  std::uint64_t stalls = 0;
  std::uint64_t fault_fires = 0;
  std::uint64_t link_resumes = 0;
  std::size_t peak_inflight = 0;
  std::size_t peak_queue = 0;
};

struct RunParams {
  double offered_rps_total = 0;
  double seconds = 0;
  double service_us = 0;
  int workers = 1;
  bool closed = false;
};

RunResult run_mode(const me::Cli& cli, const RunParams& p) {
  // Two client/server pairs, two components: --shards 2 and up give each
  // pair its own engine.
  mtb::Scenario s;
  s.seed(cli.seed).shards(cli.shards).faults(cli.faults);
  if (cli.has_json()) s.sample_telemetry(100'000'000);
  // The closed-loop run's files get a suffix, so compare mode keeps both.
  const std::string json_path = p.closed ? cli.json_path + ".closed.json" : cli.json_path;
  const std::string stream_path = p.closed ? cli.stream_path + ".closed.jsonl" : cli.stream_path;
  if (cli.has_stream()) s.stream_telemetry(stream_path, 100'000'000);
  for (int i = 0; i < kPairs; ++i) {
    const auto u = static_cast<std::uint64_t>(i);
    topo::rpc_pair(s, {.first_id = 2 * i,
                       .suffix = std::to_string(i),
                       .device_seeds = {10 + u, 20 + u},
                       .link_seeds = {30 + u}});
  }
  auto tb = s.build();
  mt::MetricRegistry& registry = tb->registry();

  const auto end_ps = static_cast<ms::SimTime>(p.seconds * 1e12);
  const double per_pair_rps = p.offered_rps_total / kPairs;

  std::vector<std::unique_ptr<mr::ServerModel>> servers;
  std::vector<std::unique_ptr<mr::LatencyRecorder>> recorders;
  std::vector<std::unique_ptr<mr::OpenLoopGenerator>> open_gens;
  std::vector<std::unique_ptr<mr::ClosedLoopGenerator>> closed_gens;
  for (int i = 0; i < kPairs; ++i) {
    mr::ServerConfig sc;
    sc.workers = p.workers;
    sc.service = mr::ServerConfig::Service::kExponential;
    sc.service_mean_ps = p.service_us * static_cast<double>(ms::kPsPerUs);
    sc.seed = cli.seed + 100 + static_cast<std::uint64_t>(i);
    servers.push_back(
        std::make_unique<mr::ServerModel>(tb->port("server" + std::to_string(i)), sc));
    if (cli.has_faults()) {
      // Server stall probes live on the server's shard plane; the per-site
      // RNG stream depends only on the site name, not the shard layout.
      if (auto* plane = tb->fault_plane(tb->shard_of(2 * i + 1)); plane != nullptr)
        servers.back()->install_faults(*plane, "rpc.s" + std::to_string(i));
    }
    servers.back()->bind_telemetry(registry, "rpc.server" + std::to_string(i));

    recorders.push_back(std::make_unique<mr::LatencyRecorder>());
    mr::WorkloadConfig wc;
    wc.offered_rps = per_pair_rps;
    wc.seed = cli.seed + 200 + static_cast<std::uint64_t>(i);
    wc.seq_base = 1 + (static_cast<std::uint64_t>(i) << 32);
    // Trim the ramp at both ends and reclaim entries orphaned by loss.
    wc.warmup_ps = end_ps / 10;
    wc.cooldown_ps = end_ps / 20;
    wc.timeout_ps = 50 * ms::kPsPerMs;
    auto& client_port = tb->port("client" + std::to_string(i));
    if (p.closed) {
      mr::ClosedLoopConfig cc;
      cc.users = 32;
      cc.think_mean_ps = static_cast<double>(cc.users) / per_pair_rps * 1e12;
      closed_gens.push_back(std::make_unique<mr::ClosedLoopGenerator>(
          client_port, *recorders.back(), wc, cc));
      closed_gens.back()->start(0, end_ps);
      closed_gens.back()->bind_telemetry(registry, "rpc.client" + std::to_string(i));
    } else {
      open_gens.push_back(
          std::make_unique<mr::OpenLoopGenerator>(client_port, *recorders.back(), wc));
      open_gens.back()->start(0, end_ps);
      open_gens.back()->bind_telemetry(registry, "rpc.client" + std::to_string(i));
    }
  }

  auto client_at = [&](int i) -> mr::detail::ClientBase& {
    if (p.closed) return *closed_gens[static_cast<std::size_t>(i)];
    return *open_gens[static_cast<std::size_t>(i)];
  };

  // Run past the stop to drain responses (and one timeout sweep) in flight.
  tb->run_until(end_ps + 60 * ms::kPsPerMs);

  RunResult out;
  for (int i = 0; i < kPairs; ++i) {
    auto& c = client_at(i);
    out.latency.merge(*recorders[static_cast<std::size_t>(i)]);
    out.issued += c.issued();
    out.matched += c.matched();
    out.timed_out += c.timed_out();
    out.send_drops += c.send_drops();
    if (c.peak_inflight() > out.peak_inflight) out.peak_inflight = c.peak_inflight();
    auto& sv = *servers[static_cast<std::size_t>(i)];
    out.queue_drops += sv.queue_drops();
    out.completed += sv.completed();
    out.stalls += sv.stalls();
    if (sv.peak_queue_depth() > out.peak_queue) out.peak_queue = sv.peak_queue_depth();
  }
  out.fault_fires = tb->fault_fires();
  for (int i = 0; i < 2 * kPairs; ++i) out.link_resumes += tb->port(i).stats().link_up_events;

  if (cli.has_json()) {
    auto series = tb->series();
    series.push_back(tb->snapshot());
    if (mt::dump_json_series_to_file(json_path, series))
      std::fprintf(stderr, "telemetry series written to %s\n", json_path.c_str());
    else
      std::fprintf(stderr, "failed to write telemetry series to %s\n", json_path.c_str());
  }
  if (tb->stream() != nullptr) {
    std::fprintf(stderr, "telemetry streamed to %s (%llu ticks, %llu rtt windows)\n",
                 stream_path.c_str(), static_cast<unsigned long long>(tb->stream()->ticks()),
                 static_cast<unsigned long long>(tb->stream()->windows_streamed()));
  }
  return out;
}

void print_result(const char* label, const RunResult& r, const me::Cli& cli) {
  std::printf("%s:\n", label);
  std::printf("  issued %llu / matched %llu / timed out %llu / client drops %llu\n",
              static_cast<unsigned long long>(r.issued),
              static_cast<unsigned long long>(r.matched),
              static_cast<unsigned long long>(r.timed_out),
              static_cast<unsigned long long>(r.send_drops));
  std::printf("  server: %llu completed, %llu queue drops, peak queue %zu\n",
              static_cast<unsigned long long>(r.completed),
              static_cast<unsigned long long>(r.queue_drops), r.peak_queue);
  std::printf("  peak in-flight %zu\n", r.peak_inflight);
  std::printf("  latency: p50 %.1f us / p99 %.1f us / p99.9 %.1f us / max %.1f us (%llu samples)\n",
              static_cast<double>(r.latency.p50_ns()) / 1e3,
              static_cast<double>(r.latency.p99_ns()) / 1e3,
              static_cast<double>(r.latency.p999_ns()) / 1e3,
              static_cast<double>(r.latency.max_ns()) / 1e3,
              static_cast<unsigned long long>(r.latency.count()));
  if (cli.has_faults())
    std::printf("  faults: %llu injected, %llu server stalls, %llu link resumes\n",
                static_cast<unsigned long long>(r.fault_fires),
                static_cast<unsigned long long>(r.stalls),
                static_cast<unsigned long long>(r.link_resumes));
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = me::parse_cli(argc, argv, kUsage);
  if (!cli) return 2;
  RunParams p;
  p.offered_rps_total = cli->number(0, 200.0) * 1e3;
  p.seconds = cli->number(1, 0.5);
  const std::string mode = cli->arg(2, "compare");
  p.service_us = cli->number(3, 8.0);
  p.workers = static_cast<int>(cli->number(4, 1.0));
  if (mode != "open" && mode != "closed" && mode != "compare") {
    std::fprintf(stderr, "unknown mode '%s'\n%s", mode.c_str(), kUsage);
    return 2;
  }
  std::printf("rpc-load-latency: %.0f krps offered over %d pairs, %.1f s, "
              "service %.1f us x %d worker(s), mode %s\n\n",
              p.offered_rps_total / 1e3, kPairs, p.seconds, p.service_us, p.workers,
              mode.c_str());

  if (mode == "open" || mode == "compare") {
    RunParams open = p;
    open.closed = false;
    print_result("open-loop", run_mode(*cli, open), *cli);
  }
  if (mode == "closed" || mode == "compare") {
    RunParams closed = p;
    closed.closed = true;
    print_result("closed-loop", run_mode(*cli, closed), *cli);
  }
  return 0;
}
