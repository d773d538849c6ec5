// Reproduces Table 2 (cost of randomizing packets) and the Section 5.6.3
// cost-estimation example.
//
// Paper values (cycles/pkt, baseline 85.1 = constant field + send):
//   fields   random   counter
//     1       32.3      27.1
//     2       39.8      33.1
//     4       66.0      38.1
//     8      133.5      41.7
// Marginal cost: ~17 cycles per random field, ~1 cycle per counter field.
//
// Section 5.6.3 then predicts the throughput of the Section 5.3 script
// (8 random fields + IP checksum offloading) from these numbers:
// 229.2 +- 3.9 cycles/pkt -> 10.47 +- 0.18 Mpps at 2.4 GHz, measured 10.3.
// We reproduce the same composition check against our own measured loop.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/device.hpp"
#include "core/field_modifier.hpp"
#include "membuf/buf_array.hpp"
#include "membuf/mempool.hpp"
#include "proto/packet_view.hpp"

namespace mc = moongen::core;
namespace mb = moongen::membuf;
namespace mp = moongen::proto;
using moongen::bench::measure_cycles_per_packet;
using moongen::stats::RunningStats;

namespace {

constexpr std::uint64_t kPacketsPerRep = 512 * 1024;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kPktSize = 60;

mb::Mempool::InitFn udp_prefill() {
  return [](mb::PktBuf& buf) {
    buf.set_length(kPktSize);
    mp::UdpPacketView view{buf.bytes()};
    mp::UdpFillOptions opts;
    opts.packet_length = kPktSize;
    view.fill(opts);
  };
}

/// Offsets of 4-byte fields within the first cacheline: IP src/dst, ports,
/// payload words — the fields a flow-randomizing script would touch.
std::vector<mc::FieldAction> make_actions(int fields, mc::FieldAction::Kind kind) {
  static constexpr std::uint16_t kOffsets[8] = {26, 30, 34, 38, 42, 46, 50, 54};
  std::vector<mc::FieldAction> actions;
  for (int i = 0; i < fields; ++i) {
    actions.push_back({.field = {kOffsets[i], 4}, .kind = kind, .value = 0, .range = 0});
  }
  return actions;
}

RunningStats measure_modifier(mc::ModifierProgram& prog) {
  mc::DeviceTable devices;
  auto& queue = devices.config(0, 1, 1).get_tx_queue(0);
  mb::Mempool pool(4096, udp_prefill());
  mb::BufArray bufs(pool, kBatch);
  return measure_cycles_per_packet([&]() -> std::uint64_t {
    std::uint64_t sent = 0;
    while (sent < kPacketsPerRep) {
      bufs.alloc(kPktSize);
      for (auto* buf : bufs) prog.apply(buf->data());
      sent += queue.send(bufs);
    }
    return sent;
  });
}

}  // namespace

int main() {
  std::printf("Table 2: Per-packet costs of modifications [cycles/pkt]\n");
  std::printf("(paper: rand 32.3/39.8/66.0/133.5, counter 27.1/33.1/38.1/41.7;\n");
  std::printf(" baseline 85.1 = constant field + send)\n\n");

  mc::ModifierProgram const_prog(make_actions(1, mc::FieldAction::Kind::kConstant));
  const auto baseline = measure_modifier(const_prog);
  std::printf("  baseline (constant + send): %.1f +- %.1f cycles/pkt\n\n", baseline.mean(),
              baseline.stddev());

  std::printf("  %-8s %-20s %-20s\n", "Fields", "Cycles/Pkt (Rand)", "Cycles/Pkt (Counter)");
  double rand8 = 0;
  for (int fields : {1, 2, 4, 8}) {
    mc::ModifierProgram rand_prog(make_actions(fields, mc::FieldAction::Kind::kRandom));
    mc::ModifierProgram ctr_prog(make_actions(fields, mc::FieldAction::Kind::kCounter));
    const auto r = measure_modifier(rand_prog);
    const auto c = measure_modifier(ctr_prog);
    // Paper reports the cost relative to the plain baseline... the table's
    // values are the extra cost vs. sending a constant packet.
    const double r_delta = r.mean() - baseline.mean();
    const double c_delta = c.mean() - baseline.mean();
    std::printf("  %-8d %8.1f +- %4.1f     %8.1f +- %4.1f\n", fields, r_delta,
                r.stddev() + baseline.stddev(), c_delta, c.stddev() + baseline.stddev());
    if (fields == 8) rand8 = r.mean();
  }

  // --- Section 5.3 aside: Tausworthe vs LCG --------------------------------
  // "Since a high quality random number generator is not required here, a
  // simple linear congruential generator would be faster."
  {
    mc::DeviceTable devices;
    auto& queue = devices.config(0, 1, 1).get_tx_queue(0);
    mb::Mempool pool(4096, udp_prefill());
    mb::BufArray bufs(pool, kBatch);
    mc::Tausworthe taus(5);
    mc::Lcg lcg(5);
    auto loop = [&](auto& rng) {
      return [&]() -> std::uint64_t {
        std::uint64_t sent = 0;
        while (sent < kPacketsPerRep) {
          bufs.alloc(kPktSize);
          for (auto* buf : bufs) {
            auto* fields = reinterpret_cast<std::uint32_t*>(buf->data() + 26);
            for (int f = 0; f < 8; ++f) fields[f] = rng.next();
          }
          sent += queue.send(bufs);
        }
        return sent;
      };
    };
    const auto delta = moongen::bench::measure_cycles_delta(loop(taus), loop(lcg));
    std::printf("\nSection 5.3 aside: switching 8 fields from Tausworthe to LCG saves"
                " %.1f +- %.1f cycles/pkt\n", -delta.mean(), delta.stddev());
  }

  // --- Section 5.6.3: cost estimation example -----------------------------
  std::printf("\nSection 5.6.3: cost estimation example\n");
  // Predicted cost: IO + modification + 8 random fields + IP offloading,
  // composed from the measured numbers above (rand8 already includes IO and
  // modification).
  mc::DeviceTable devices;
  auto& queue = devices.config(0, 1, 1).get_tx_queue(0);
  mb::Mempool pool(4096, udp_prefill());
  mb::BufArray bufs(pool, kBatch);
  // Measure IP offloading delta on this binary's build for composition.
  const auto tx_plain = measure_cycles_per_packet([&]() -> std::uint64_t {
    std::uint64_t sent = 0;
    while (sent < kPacketsPerRep) {
      bufs.alloc(kPktSize);
      sent += queue.send(bufs);
    }
    return sent;
  });
  const auto tx_ipoff = measure_cycles_per_packet([&]() -> std::uint64_t {
    std::uint64_t sent = 0;
    while (sent < kPacketsPerRep) {
      bufs.alloc(kPktSize);
      bufs.offload_ip_checksums();
      sent += queue.send(bufs);
    }
    return sent;
  });
  const double ip_delta = tx_ipoff.mean() - tx_plain.mean();
  const double predicted_cycles = rand8 + ip_delta;

  // Measured: the actual Section 5.3-style loop (8 random fields + IP
  // checksum offload + send).
  mc::ModifierProgram full_prog(make_actions(8, mc::FieldAction::Kind::kRandom));
  const auto measured = measure_cycles_per_packet([&]() -> std::uint64_t {
    std::uint64_t sent = 0;
    while (sent < kPacketsPerRep) {
      bufs.alloc(kPktSize);
      for (auto* buf : bufs) full_prog.apply(buf->data());
      bufs.offload_ip_checksums();
      sent += queue.send(bufs);
    }
    return sent;
  });

  const double ghz = 2.4;  // the paper's reference clock for this example
  std::printf("  predicted: %.1f cycles/pkt -> %.2f Mpps at %.1f GHz\n", predicted_cycles,
              ghz * 1e3 / predicted_cycles, ghz);
  std::printf("  measured:  %.1f cycles/pkt -> %.2f Mpps at %.1f GHz\n", measured.mean(),
              ghz * 1e3 / measured.mean(), ghz);
  std::printf("  (paper: predicted 229.2 +- 3.9 -> 10.47 Mpps; measured 10.3 Mpps)\n");
  const double rel_err = (measured.mean() - predicted_cycles) / measured.mean() * 100.0;
  std::printf("  prediction error: %.1f %%\n", rel_err);
  return 0;
}
