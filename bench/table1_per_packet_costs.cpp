// Reproduces Table 1: per-packet costs of basic operations (cycles/pkt).
//
// Paper values (Intel Xeon E5-2620 v3):
//   Packet transmission                 76.0 +- 0.8
//   Packet modification                  9.1 +- 1.2
//   Packet modification (two cachelines) 15.0 +- 1.3
//   IP checksum offloading              15.2 +- 1.2
//   UDP checksum offloading             33.1 +- 3.5
//   TCP checksum offloading             34.0 +- 3.3
//
// "Packet transmission" is the IO baseline (allocate a batch, send it
// untouched); the other rows are the *additional* cost of that operation on
// top of the baseline, measured exactly as in Section 5.6.1 — here with
// paired (interleaved) runs so machine drift cancels. Absolute numbers
// depend on the host CPU; the reproduced result is the shape: the IO
// baseline dominates, same-cacheline writes are nearly free, extra
// cachelines cost more, and L4 offloading (pseudo-header sums) costs more
// than IP offloading (descriptor flags only).
#include <cstdio>
#include <functional>

#include "bench_util.hpp"
#include "core/device.hpp"
#include "membuf/buf_array.hpp"
#include "membuf/mempool.hpp"
#include "proto/packet_view.hpp"

namespace mc = moongen::core;
namespace mb = moongen::membuf;
namespace mp = moongen::proto;
using moongen::bench::measure_cycles_delta;
using moongen::bench::measure_cycles_per_packet;
using moongen::stats::RunningStats;

namespace {

constexpr std::uint64_t kPacketsPerRep = 256 * 1024;
constexpr std::size_t kBatch = 64;

/// One benchmark configuration: a device queue plus a pre-filled pool.
struct Fixture {
  explicit Fixture(std::size_t pkt_size, bool tcp = false)
      : size(pkt_size),
        dev(devices.config(0, 1, 1)),
        pool(4096,
             [pkt_size, tcp](mb::PktBuf& buf) {
               buf.set_length(pkt_size);
               if (tcp) {
                 mp::TcpPacketView view{buf.bytes()};
                 mp::TcpFillOptions opts;
                 opts.packet_length = pkt_size;
                 view.fill(opts);
               } else {
                 mp::UdpPacketView view{buf.bytes()};
                 mp::UdpFillOptions opts;
                 opts.packet_length = pkt_size;
                 view.fill(opts);
               }
             }),
        bufs(pool, kBatch) {}

  /// Returns a loop body sending kPacketsPerRep packets with `touch`
  /// applied per batch.
  std::function<std::uint64_t()> loop(std::function<void(mb::BufArray&)> touch = {}) {
    return [this, touch = std::move(touch)]() -> std::uint64_t {
      auto& queue = dev.get_tx_queue(0);
      std::uint64_t sent = 0;
      while (sent < kPacketsPerRep) {
        bufs.alloc(size);
        if (touch) touch(bufs);
        sent += queue.send(bufs);
      }
      return sent;
    };
  }

  std::size_t size;
  mc::DeviceTable devices;
  mc::Device& dev;
  mb::Mempool pool;
  mb::BufArray bufs;
};

void print_delta(const char* label, const RunningStats& delta) {
  std::printf("  %-40s %8.1f +- %4.1f\n", label, delta.mean(), delta.stddev());
}

}  // namespace

int main() {
  moongen::bench::pin_measurement_thread();
  std::printf("Table 1: Per-packet costs of basic operations [cycles/pkt]\n");
  std::printf("(paper: TX 76.0, mod 9.1, mod-2-cachelines 15.0, IP 15.2, UDP 33.1, TCP 34.0)\n\n");

  {
    Fixture fx(60);
    const auto tx = measure_cycles_per_packet(fx.loop());
    std::printf("  %-40s %8.1f +- %4.1f\n", "Packet transmission (baseline)", tx.mean(),
                tx.stddev());
  }
  {
    Fixture fx(60);
    print_delta("Packet modification",
                measure_cycles_delta(fx.loop(), fx.loop([](mb::BufArray& bufs) {
                  for (auto* buf : bufs) {
                    mp::UdpPacketView view{buf->bytes()};
                    view.ip().src_be = mp::hton32(0x0a000001);
                  }
                })));
  }
  {
    Fixture fx(124);
    print_delta("Packet modification (two cachelines)",
                measure_cycles_delta(fx.loop([](mb::BufArray& bufs) {
                  for (auto* buf : bufs) {
                    mp::UdpPacketView view{buf->bytes()};
                    view.ip().src_be = mp::hton32(0x0a000001);
                  }
                }),
                                     fx.loop([](mb::BufArray& bufs) {
                                       for (auto* buf : bufs) {
                                         mp::UdpPacketView view{buf->bytes()};
                                         view.ip().src_be = mp::hton32(0x0a000001);
                                         buf->data()[96] = 0x5a;  // second cacheline
                                       }
                                     })));
  }
  {
    Fixture fx(60);
    print_delta("IP checksum offloading",
                measure_cycles_delta(fx.loop(), fx.loop([](mb::BufArray& bufs) {
                  bufs.offload_ip_checksums();
                })));
  }
  {
    Fixture fx(60);
    print_delta("UDP checksum offloading",
                measure_cycles_delta(fx.loop(), fx.loop([](mb::BufArray& bufs) {
                  bufs.offload_udp_checksums();
                })));
  }
  {
    Fixture fx(60, /*tcp=*/true);
    print_delta("TCP checksum offloading",
                measure_cycles_delta(fx.loop(), fx.loop([](mb::BufArray& bufs) {
                  bufs.offload_tcp_checksums();
                })));
  }

  // Ablation (DESIGN.md): batch size sweep for the IO baseline — batching
  // is what makes the cheap IO baseline possible at all (Section 4.2).
  std::printf("\nAblation: IO baseline vs. TX batch size [cycles/pkt]\n");
  for (std::size_t batch : {1u, 4u, 16u, 64u, 256u}) {
    Fixture fx(60);
    mb::BufArray bufs(fx.pool, batch);
    auto& queue = fx.dev.get_tx_queue(0);
    const auto s = measure_cycles_per_packet([&]() -> std::uint64_t {
      std::uint64_t sent = 0;
      while (sent < kPacketsPerRep / 4) {
        bufs.alloc(60);
        sent += queue.send(bufs);
      }
      return sent;
    });
    std::printf("  batch %3zu: %8.1f +- %4.1f\n", batch, s.mean(), s.stddev());
  }

  // Section 5.7: per-packet costs are independent of the packet size when
  // the contents are not modified.
  std::printf("\nEffects of packet size (Section 5.7): alloc+send, no modification\n");
  for (std::size_t size : {60u, 64u, 80u, 96u, 112u, 124u, 252u, 508u, 1020u, 1514u}) {
    Fixture fx(size);
    const auto s = measure_cycles_per_packet(fx.loop());
    std::printf("  %4zu B frame: %8.1f +- %4.1f cycles/pkt\n", size + 4, s.mean(), s.stddev());
  }
  std::printf("\n(TSC frequency: %.2f GHz)\n", moongen::bench::tsc_ghz());
  return 0;
}
