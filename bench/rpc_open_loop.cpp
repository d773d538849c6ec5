// rpc_open_loop: the RPC plane's two headline claims, measured.
//
//  1. Tail separation: at the same offered load near saturation, the
//     open-loop generator reports a p99 far above the closed-loop one —
//     the closed loop's N users self-throttle when the server slows, so
//     queueing delay never reaches its measurement (coordinated
//     omission). The run FAILS if open p99 <= closed p99.
//
//  2. Scale: an open-loop run is pushed past a slow server's capacity
//     until more than a million requests are simultaneously in flight,
//     while a global operator-new counter verifies the steady state
//     performs zero heap allocations — frame buffers come from the
//     round-robin pool, the in-flight table is flat and preallocated,
//     and every event closure fits the engine's inline budget. The run
//     FAILS on any allocation inside the measured window or if the peak
//     stays below one million.
//
// Results are written as BENCH_rpc_open_loop.json.
//
// Usage: rpc_open_loop [json_path]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "alloc_counter.hpp"
#include "rpc/open_loop.hpp"
#include "rpc/server_model.hpp"
#include "testbed/scenario.hpp"
#include "topologies.hpp"

namespace mr = moongen::rpc;
namespace ms = moongen::sim;
namespace mtb = moongen::testbed;
namespace topo = moongen::topologies;

namespace {

std::unique_ptr<mtb::Testbed> make_pair_bed() {
  // One client -> server pair on a single engine; determinism across
  // repeats is covered by tests, this binary measures.
  mtb::Scenario s;
  s.telemetry(false);
  topo::rpc_pair(s, {.device_seeds = {10, 20}, .link_seeds = {30}});
  return s.build();
}

// ---------------------------------------------------------------------------
// Part 1: open vs. closed p99 at the same offered load near saturation.
// ---------------------------------------------------------------------------

struct TailResult {
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t samples = 0;
  std::uint64_t issued = 0;
};

constexpr double kTailOfferedRps = 120'000.0;  // server capacity: 125 krps
constexpr double kTailServiceUs = 8.0;
constexpr ms::SimTime kTailEndPs = 600 * ms::kPsPerMs;

TailResult run_tail(bool closed) {
  auto tb = make_pair_bed();
  mr::ServerConfig sc;
  sc.workers = 1;
  sc.service = mr::ServerConfig::Service::kExponential;
  sc.service_mean_ps = kTailServiceUs * static_cast<double>(ms::kPsPerUs);
  sc.seed = 7;
  mr::ServerModel server(tb->port("server"), sc);

  mr::LatencyRecorder recorder;
  mr::WorkloadConfig wc;
  wc.offered_rps = kTailOfferedRps;
  wc.seed = 42;
  wc.warmup_ps = 60 * ms::kPsPerMs;
  wc.cooldown_ps = 30 * ms::kPsPerMs;
  std::unique_ptr<mr::OpenLoopGenerator> open;
  std::unique_ptr<mr::ClosedLoopGenerator> closed_gen;
  if (closed) {
    mr::ClosedLoopConfig cc;
    cc.users = 24;
    cc.think_mean_ps = static_cast<double>(cc.users) / kTailOfferedRps * 1e12;  // 200 us
    closed_gen = std::make_unique<mr::ClosedLoopGenerator>(tb->port("client"), recorder, wc, cc);
    closed_gen->start(0, kTailEndPs);
  } else {
    open = std::make_unique<mr::OpenLoopGenerator>(tb->port("client"), recorder, wc);
    open->start(0, kTailEndPs);
  }
  tb->run_until(kTailEndPs + 20 * ms::kPsPerMs);

  TailResult out;
  out.p50_ns = recorder.p50_ns();
  out.p99_ns = recorder.p99_ns();
  out.samples = recorder.count();
  out.issued = closed ? closed_gen->issued() : open->issued();
  return out;
}

// ---------------------------------------------------------------------------
// Part 2: a million requests in flight, zero steady-state allocations.
// ---------------------------------------------------------------------------

struct ScaleResult {
  std::size_t peak_inflight = 0;
  std::uint64_t issued = 0;
  std::uint64_t send_drops = 0;
  std::uint64_t steady_allocs = 0;
  double wall_ms = 0;
};

ScaleResult run_scale() {
  auto tb = make_pair_bed();
  mr::ServerConfig sc;
  sc.workers = 1;
  sc.service = mr::ServerConfig::Service::kFixed;
  sc.service_mean_ps = 100.0 * static_cast<double>(ms::kPsPerUs);  // 10 krps capacity
  sc.queue_capacity = 1 << 15;
  sc.seed = 7;
  mr::ServerModel server(tb->port("server"), sc);

  mr::LatencyRecorder recorder;
  mr::WorkloadConfig wc;
  wc.offered_rps = 8e6;      // ~2/3 of 80 B line rate, 800x server capacity
  wc.frame_size = 80;        // RPC header stack is 74 B
  wc.inflight_expected = 1 << 20;  // table: 2M slots, 64 MiB, flat
  wc.pool_frames = 4096;
  wc.seed = 42;
  mr::OpenLoopGenerator gen(tb->port("client"), recorder, wc);

  constexpr ms::SimTime kWarmPs = 30 * ms::kPsPerMs;   // ~240k in flight
  constexpr ms::SimTime kEndPs = 150 * ms::kPsPerMs;   // ~1.2M issued
  gen.start(0, kEndPs);
  tb->run_until(kWarmPs);

  const std::uint64_t allocs_before = moongen::bench::allocations();
  const auto t0 = std::chrono::steady_clock::now();
  tb->run_until(kEndPs);
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs_after = moongen::bench::allocations();

  ScaleResult out;
  out.peak_inflight = gen.peak_inflight();
  out.issued = gen.issued();
  out.send_drops = gen.send_drops();
  out.steady_allocs = allocs_after - allocs_before;
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_rpc_open_loop.json";

  std::printf("rpc_open_loop part 1: open vs closed at %.0f krps offered "
              "(capacity %.0f krps)\n",
              kTailOfferedRps / 1e3, 1e3 / kTailServiceUs);
  const TailResult open = run_tail(/*closed=*/false);
  const TailResult closed = run_tail(/*closed=*/true);
  std::printf("  open:   p50 %7.1f us  p99 %7.1f us  (%llu samples)\n",
              static_cast<double>(open.p50_ns) / 1e3, static_cast<double>(open.p99_ns) / 1e3,
              static_cast<unsigned long long>(open.samples));
  std::printf("  closed: p50 %7.1f us  p99 %7.1f us  (%llu samples)\n",
              static_cast<double>(closed.p50_ns) / 1e3, static_cast<double>(closed.p99_ns) / 1e3,
              static_cast<unsigned long long>(closed.samples));
  if (open.p99_ns <= closed.p99_ns) {
    std::fprintf(stderr, "FATAL: open-loop p99 (%llu ns) <= closed-loop p99 (%llu ns)\n",
                 static_cast<unsigned long long>(open.p99_ns),
                 static_cast<unsigned long long>(closed.p99_ns));
    return 1;
  }
  std::printf("  open-loop tail exceeds closed-loop tail (x%.1f at p99)\n\n",
              static_cast<double>(open.p99_ns) / static_cast<double>(closed.p99_ns));

  std::printf("rpc_open_loop part 2: 8 Mrps into a 10 krps server, 120 ms measured\n");
  const ScaleResult scale = run_scale();
  std::printf("  peak in-flight %zu, issued %llu, steady-state allocations %llu, "
              "wall %.0f ms\n",
              scale.peak_inflight, static_cast<unsigned long long>(scale.issued),
              static_cast<unsigned long long>(scale.steady_allocs), scale.wall_ms);
  if (scale.peak_inflight < 1'000'000) {
    std::fprintf(stderr, "FATAL: peak in-flight %zu < 1M\n", scale.peak_inflight);
    return 1;
  }
  if (scale.steady_allocs != 0) {
    std::fprintf(stderr, "FATAL: %llu heap allocations in the steady-state window\n",
                 static_cast<unsigned long long>(scale.steady_allocs));
    return 1;
  }
  std::printf("  steady state is allocation-free\n");

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"moongen-bench-rpc-open-loop-v1\",\n");
  std::fprintf(f,
               "  \"tail\": {\"offered_rps\": %.0f, \"service_us\": %.1f, "
               "\"open_p50_ns\": %llu, \"open_p99_ns\": %llu, "
               "\"closed_p50_ns\": %llu, \"closed_p99_ns\": %llu, "
               "\"p99_ratio\": %.2f},\n",
               kTailOfferedRps, kTailServiceUs, static_cast<unsigned long long>(open.p50_ns),
               static_cast<unsigned long long>(open.p99_ns),
               static_cast<unsigned long long>(closed.p50_ns),
               static_cast<unsigned long long>(closed.p99_ns),
               static_cast<double>(open.p99_ns) / static_cast<double>(closed.p99_ns));
  std::fprintf(f,
               "  \"inflight\": {\"offered_rps\": 8000000, \"peak_inflight\": %zu, "
               "\"issued\": %llu, \"send_drops\": %llu, \"steady_allocs\": %llu, "
               "\"wall_ms\": %.1f},\n",
               scale.peak_inflight, static_cast<unsigned long long>(scale.issued),
               static_cast<unsigned long long>(scale.send_drops),
               static_cast<unsigned long long>(scale.steady_allocs), scale.wall_ms);
  std::fprintf(f,
               "  \"note\": \"tail numbers are virtual-time simulation results and "
               "deterministic; wall_ms is measured on this host.\"\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
