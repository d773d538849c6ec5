// Reproduces Figure 2: multi-core scaling under high load.
//
// Workload (Section 5.3): minimum-sized packets with random payload and
// random source/destination addresses and ports — 8 random numbers per
// packet — each core sending to two 10 GbE interfaces, CPU clocked down to
// 1.2 GHz. The paper observes linear scaling up to the 2x10 GbE line-rate
// limit of 29.76 Mpps (dashed line).
//
// Reproduction: (1) run the real multi-threaded loop on this host to show
// linear scaling in silicon; (2) feed the measured cycles/packet through
// the paper's own cycles-budget methodology (Section 5.1/5.6.3) to produce
// the 1.2 GHz series with the line-rate cap — the actual Figure 2 curve.
//
// With `--json FILE` the run additionally dumps a telemetry snapshot (the
// packets and tasks of the silicon runs, each task counting on its own and
// summed after it is joined, and per-series gauges) in the schema
// documented in DESIGN.md ("Telemetry"); stdout is unchanged.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/device.hpp"
#include "core/field_modifier.hpp"
#include "core/task.hpp"
#include "membuf/buf_array.hpp"
#include "membuf/mempool.hpp"
#include "nic/throughput_model.hpp"
#include "proto/packet_view.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/registry.hpp"

namespace mc = moongen::core;
namespace mb = moongen::membuf;
namespace mp = moongen::proto;
namespace mn = moongen::nic;
namespace mt = moongen::telemetry;

namespace {

constexpr std::size_t kPktSize = 60;

/// The Section 5.3 loop body: 8 random 4-byte fields (addresses, ports,
/// payload) + IP checksum offload + send on two queues alternately.
std::uint64_t heavy_loop(int dev_a, int dev_b, std::uint64_t packets) {
  mc::DeviceTable devices;
  auto& da = devices.config(dev_a, 1, 1);
  auto& db = devices.config(dev_b, 1, 1);
  mb::Mempool pool(4096, [](mb::PktBuf& buf) {
    buf.set_length(kPktSize);
    mp::UdpPacketView view{buf.bytes()};
    mp::UdpFillOptions opts;
    opts.packet_length = kPktSize;
    view.fill(opts);
  });
  mb::BufArray bufs(pool, 64);
  std::vector<mc::FieldAction> actions;
  for (std::uint16_t off : {26, 30, 34, 36, 42, 46, 50, 54})
    actions.push_back({.field = {off, 4}, .kind = mc::FieldAction::Kind::kRandom});
  mc::ModifierProgram prog(std::move(actions), static_cast<std::uint32_t>(dev_a * 77 + 1));

  std::uint64_t sent = 0;
  bool flip = false;
  while (sent < packets) {
    bufs.alloc(kPktSize);
    for (auto* buf : bufs) prog.apply(buf->data());
    bufs.offload_ip_checksums();
    auto& q = (flip ? da : db).get_tx_queue(0);
    flip = !flip;
    sent += q.send(bufs);
  }
  return sent;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }

  mt::MetricRegistry registry;

  std::printf("Figure 2: Multi-core scaling under high load\n");
  std::printf("(min-size packets, 8 random fields/pkt, 2 x 10 GbE, 1.2 GHz cores)\n\n");

  // Single-core cost of the heavy script.
  const auto single = moongen::bench::measure_cycles_per_packet(
      [] { return heavy_loop(0, 1, 512 * 1024); }, 6, 2);
  std::printf("measured cost of the Section 5.3 script: %.1f +- %.1f cycles/pkt\n",
              single.mean(), single.stddev());
  std::printf("(paper predicts 229.2 +- 3.9 for its script; 10.3 Mpps at 2.4 GHz -> 233 cyc)\n\n");
  registry.set_gauge("fig2.cycles_per_packet", single.mean());

  // (1) Real silicon scaling: k pinned tasks, each its own devices and pool.
  const unsigned hw_threads = std::thread::hardware_concurrency();
  const int max_threads = static_cast<int>(std::min(hw_threads, 8u));
  std::printf("silicon scaling on this host (%u hardware threads):\n", hw_threads);
  std::printf("  %-7s %12s %14s\n", "cores", "Mpps", "Mpps/core");
  for (int k = 1; k <= max_threads; ++k) {
    constexpr std::uint64_t kPerThread = 2 * 1024 * 1024;
    // Each task counts on its own and stores its total once, after its
    // loop: the cores share no counter while they send.
    std::vector<std::uint64_t> sent(static_cast<std::size_t>(k));
    mc::TaskSet tasks;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < k; ++i) {
      tasks.launch("fig2-core", [i, &sent] {
        sent[static_cast<std::size_t>(i)] = heavy_loop(2 + 2 * i, 3 + 2 * i, kPerThread);
      });
    }
    tasks.wait();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    for (const std::uint64_t n : sent) registry.add_counter("fig2.tx_packets", n);
    // wait() joined all k tasks: as many finished as were launched.
    registry.add_counter("fig2.tasks_launched", static_cast<std::uint64_t>(k));
    registry.add_counter("fig2.tasks_finished", static_cast<std::uint64_t>(k));
    registry.set_gauge("fig2.tasks_active", 0.0);
    const double mpps = static_cast<double>(kPerThread) * k / secs / 1e6;
    std::printf("  %-7d %12.2f %14.2f\n", k, mpps, mpps / k);
    registry.set_gauge("fig2.silicon.cores_" + std::to_string(k) + ".mpps", mpps);
  }

  // (2) The Figure 2 series: 1.2 GHz cores against 2 x 10 GbE line rate.
  std::printf("\nFigure 2 series (cycles-budget model at 1.2 GHz, 2 x 10 GbE):\n");
  std::printf("  %-7s %12s %14s %12s\n", "cores", "Mpps", "Rate [Gbit/s]", "bottleneck");
  for (int k = 1; k <= 8; ++k) {
    mn::ThroughputQuery q;
    q.frame_size = 64;
    q.cores = k;
    q.cycles_per_packet = single.mean();
    q.cpu_hz = 1.2e9;
    q.link_mbit = 10'000;
    q.ports = 2;
    const auto r = mn::predict_throughput(q);
    std::printf("  %-7d %12.2f %14.2f %12s\n", k, r.total_pps / 1e6, r.total_wire_mbit / 1e3,
                r.bottleneck == mn::Bottleneck::kCpu ? "CPU" : "line rate");
    registry.set_gauge("fig2.model_1p2ghz.cores_" + std::to_string(k) + ".mpps",
                       r.total_pps / 1e6);
  }
  // Same series with the cost calibrated to the paper's LuaJIT script
  // (10.3 Mpps at 2.4 GHz, Section 5.3 -> 233 cycles/pkt): line rate is
  // then reached at 6 cores, exactly as in Figure 2.
  std::printf("\nFigure 2 series with the paper's 233 cycles/pkt (LuaJIT calibration):\n");
  std::printf("  %-7s %12s %14s %12s\n", "cores", "Mpps", "Rate [Gbit/s]", "bottleneck");
  for (int k = 1; k <= 8; ++k) {
    mn::ThroughputQuery q;
    q.frame_size = 64;
    q.cores = k;
    q.cycles_per_packet = 2.4e9 / 10.3e6;
    q.cpu_hz = 1.2e9;
    q.link_mbit = 10'000;
    q.ports = 2;
    const auto r = mn::predict_throughput(q);
    std::printf("  %-7d %12.2f %14.2f %12s\n", k, r.total_pps / 1e6, r.total_wire_mbit / 1e3,
                r.bottleneck == mn::Bottleneck::kCpu ? "CPU" : "line rate");
    registry.set_gauge("fig2.papercal.cores_" + std::to_string(k) + ".mpps", r.total_pps / 1e6);
  }
  std::printf("\n(paper: linear to the 29.76 Mpps line-rate limit, ~5 Mpps/core at 1.2 GHz)\n");

  if (!json_path.empty()) {
    const auto ts = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    if (mt::dump_json_to_file(json_path, registry.snapshot(ts)))
      std::fprintf(stderr, "telemetry snapshot written to %s\n", json_path.c_str());
    else
      std::fprintf(stderr, "failed to write telemetry snapshot to %s\n", json_path.c_str());
  }
  return 0;
}
