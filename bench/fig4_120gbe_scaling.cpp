// Reproduces Figure 4: multi-core scaling across twelve 10 GbE interfaces
// (emulated 120 Gbit/s).
//
// Section 5.5: six dual-port X540 NICs, two Xeon E5-2640 v2 CPUs at 2 GHz,
// UDP packets with varying source IPs. MoonGen reaches 178.5 Mpps
// (12 x 14.88 Mpps line rate) with 12 cores, scaling linearly — sending to
// multiple NICs is architecturally the same as sending to multiple queues
// of one NIC.
#include <cstdio>

#include "bench_util.hpp"
#include "core/device.hpp"
#include "core/field_modifier.hpp"
#include "membuf/buf_array.hpp"
#include "membuf/mempool.hpp"
#include "nic/throughput_model.hpp"
#include "proto/packet_view.hpp"

namespace mc = moongen::core;
namespace mb = moongen::membuf;
namespace mp = moongen::proto;
namespace mn = moongen::nic;

int main() {
  std::printf("Figure 4: Multi-core scaling, twelve 10 GbE interfaces at 2 GHz\n\n");

  // Cost of the varying-source-IP loop (the Section 5.5 workload).
  mc::DeviceTable devices;
  auto& queue = devices.config(0, 1, 1).get_tx_queue(0);
  mb::Mempool pool(4096, [](mb::PktBuf& buf) {
    buf.set_length(60);
    mp::UdpPacketView view{buf.bytes()};
    mp::UdpFillOptions opts;
    opts.packet_length = 60;
    view.fill(opts);
  });
  mb::BufArray bufs(pool, 64);
  mc::Tausworthe rng(5);
  const auto cost = moongen::bench::measure_cycles_per_packet([&]() -> std::uint64_t {
    std::uint64_t sent = 0;
    while (sent < 512 * 1024) {
      bufs.alloc(60);
      for (auto* buf : bufs) {
        mp::UdpPacketView view{buf->bytes()};
        view.ip().src_be = mp::hton32(0x0a000001 + rng.next() % 256);
      }
      bufs.offload_udp_checksums();
      sent += queue.send(bufs);
    }
    return sent;
  });
  std::printf("measured workload cost: %.1f +- %.1f cycles/pkt\n\n", cost.mean(), cost.stddev());

  std::printf("  %-7s %12s %16s %12s\n", "cores", "Mpps", "Rate [Gbit/s]", "bottleneck");
  for (int k = 1; k <= 12; ++k) {
    mn::ThroughputQuery q;
    q.frame_size = 64;
    q.cores = k;
    q.cycles_per_packet = cost.mean();
    q.cpu_hz = 2.0e9;
    q.link_mbit = 10'000;
    q.ports = k;  // each core drives one port, as in the paper's setup
    const auto r = mn::predict_throughput(q);
    std::printf("  %-7d %12.2f %16.2f %12s\n", k, r.total_pps / 1e6, r.total_wire_mbit / 1e3,
                r.bottleneck == mn::Bottleneck::kCpu ? "CPU" : "line rate");
  }
  std::printf("\n(paper: 178.5 Mpps at 12 cores = 12 x 10 GbE line rate, linear scaling;\n");
  std::printf(" the 2 GHz clock could even be reduced to 1.5 GHz for this workload)\n");

  const double min_ghz = cost.mean() * 14.88e6 / 1e9;
  std::printf("\nper-core frequency needed for one 10 GbE port: %.2f GHz\n", min_ghz);
  return 0;
}
