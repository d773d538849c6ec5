// parallel_scaling: wall-clock scaling of the sharded simulation runtime.
//
// Four independent generator -> sink port pairs (XL710 at 40 GbE, hardware
// rate control near line rate for 64 B frames) are pinned one pair per
// shard. The pairs exchange no cross-shard traffic, so this measures the
// runtime's best case: the embarrassingly parallel multi-port scaling
// experiment of paper Figures 3/4. The same virtual duration is run at 1,
// 2, and 4 shards and the wall-clock times are written as
// BENCH_parallel_scaling.json.
//
// The simulated outputs (per-port TX counts) are asserted identical across
// shard counts before any timing is reported — a benchmark of a wrong
// result is worthless. The generators' TX arbiters must also visit at most
// kMaxArbiterVisitsPerFrame queues per transmitted frame: the arbiter visits
// engaged queues only (one per generator here), so a return to scanning all
// 384 XL710 queues fails the run as a count, not as a timing. Likewise the
// shards may execute at most kMaxEventsPerFrame events per transmitted
// frame: each frame's receive event plus a TX completion and a pacing wake
// per batch of paced frames, so a pair that stops batching fails the run.
//
// Usage: parallel_scaling [virtual_ms] [json_path]
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/rate_control.hpp"
#include "testbed/scenario.hpp"
#include "topologies.hpp"

namespace mc = moongen::core;
namespace ms = moongen::sim;
namespace mtb = moongen::testbed;
namespace topo = moongen::topologies;

namespace {

constexpr int kPairs = 4;
constexpr double kMaxArbiterVisitsPerFrame = 4.0;
constexpr double kMaxEventsPerFrame = 1.5;

struct RunOutcome {
  double wall_ms = 0;
  std::size_t shards = 0;
  std::vector<std::uint64_t> tx_packets;  // per pair, for the identity check
  double arbiter_visits_per_frame = 0;
  double events_per_frame = 0;
};

RunOutcome run_config(int shards, double virtual_ms) {
  mtb::Scenario s;
  s.seed(1).shards(shards).telemetry(false);
  for (int p = 0; p < kPairs; ++p)
    topo::xl710_pair(s, {.first_id = 2 * p, .suffix = std::to_string(p)});
  // Groups are {0,1},{2,3},{4,5},{6,7}; round-robin puts pair p on shard
  // p % effective, so each shard carries an equal share of the load.
  auto tb = s.build();

  mc::UdpTemplateOptions opts;
  opts.frame_size = 64;
  std::vector<std::unique_ptr<mc::SimLoadGen>> gens;
  gens.reserve(kPairs);
  for (int p = 0; p < kPairs; ++p) {
    auto& queue = tb->port(2 * p).tx_queue(0);
    queue.set_rate_mpps(40.0, 64);  // ~2/3 of 64 B line rate: CPU-bound shards
    gens.push_back(mc::SimLoadGen::hardware_paced(queue, mc::make_udp_frame(opts)));
  }

  const auto t0 = std::chrono::steady_clock::now();
  tb->run_until(static_cast<ms::SimTime>(virtual_ms * 1e9));
  const auto t1 = std::chrono::steady_clock::now();

  RunOutcome out;
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.shards = tb->shard_count();
  std::uint64_t visits = 0;
  std::uint64_t frames = 0;
  for (int p = 0; p < kPairs; ++p) {
    const auto& gen = tb->port(2 * p);
    out.tx_packets.push_back(gen.stats().tx_packets);
    visits += gen.arbiter_visits();
    frames += gen.stats().tx_packets;
  }
  std::uint64_t events = 0;
  for (std::size_t i = 0; i < tb->shard_count(); ++i) events += tb->runtime().shard(i).executed();
  out.arbiter_visits_per_frame =
      frames > 0 ? static_cast<double>(visits) / static_cast<double>(frames) : 0.0;
  out.events_per_frame =
      frames > 0 ? static_cast<double>(events) / static_cast<double>(frames) : 0.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const double virtual_ms = argc > 1 ? std::atof(argv[1]) : 20.0;
  const std::string json_path = argc > 2 ? argv[2] : "BENCH_parallel_scaling.json";
  std::printf("parallel_scaling: %d independent 40 GbE pairs, %.0f ms virtual time\n", kPairs,
              virtual_ms);

  const int configs[] = {1, 2, 4};
  std::vector<RunOutcome> results;
  for (const int n : configs) {
    // Warm-up run (first-touch allocations, page faults), then the timed one.
    (void)run_config(n, virtual_ms / 10.0);
    results.push_back(run_config(n, virtual_ms));
    std::printf("  shards=%d (effective %zu): %8.1f ms wall\n", n, results.back().shards,
                results.back().wall_ms);
  }

  for (std::size_t i = 1; i < results.size(); ++i) {
    if (results[i].tx_packets != results[0].tx_packets) {
      std::fprintf(stderr, "FATAL: shard config %d produced different TX counts\n", configs[i]);
      return 1;
    }
  }
  std::printf("  simulated outputs identical across shard counts\n");
  const double visits = results[0].arbiter_visits_per_frame;
  std::printf("  arbiter visits per transmitted frame: %.2f (gate: <= %.1f)\n", visits,
              kMaxArbiterVisitsPerFrame);
  if (visits > kMaxArbiterVisitsPerFrame) {
    std::fprintf(stderr, "FATAL: the TX arbiter visits %.2f queues per frame (> %.1f)\n", visits,
                 kMaxArbiterVisitsPerFrame);
    return 1;
  }
  const double events = results[0].events_per_frame;
  std::printf("  events per transmitted frame: %.3f (gate: <= %.1f)\n", events, kMaxEventsPerFrame);
  if (events > kMaxEventsPerFrame) {
    std::fprintf(stderr, "FATAL: the shards execute %.3f events per frame (> %.1f)\n", events,
                 kMaxEventsPerFrame);
    return 1;
  }

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"moongen-bench-parallel-scaling-v1\",\n");
  std::fprintf(f,
               "  \"workload\": \"%d independent XL710 40GbE gen->sink pairs, 64 B frames at 40 "
               "Mpps hardware pacing, %.0f ms virtual time, no cross-shard traffic\",\n",
               kPairs, virtual_ms);
  const unsigned cores = std::thread::hardware_concurrency();
  std::fprintf(f, "  \"cores\": %u,\n", cores);
  std::fprintf(f, "  \"arbiter_visits_per_frame\": %.2f,\n", visits);
  std::fprintf(f, "  \"events_per_frame\": %.3f,\n", events);
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    // honest: each shard thread had a physical core available — a run that
    // time-slices shards cannot demonstrate (or refute) parallel speedup.
    std::fprintf(f,
                 "    {\"requested_shards\": %d, \"effective_shards\": %zu, \"wall_ms\": %.1f, "
                 "\"speedup_vs_1\": %.2f, \"honest\": %s}%s\n",
                 configs[i], results[i].shards, results[i].wall_ms,
                 results[0].wall_ms / results[i].wall_ms,
                 cores >= static_cast<unsigned>(configs[i]) ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"note\": \"speedup is bounded by physical cores: a single-core host time-slices "
               "the shard threads and can show no parallel gain. Numbers are measured on this "
               "host, never extrapolated.\"\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
