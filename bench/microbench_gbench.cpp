// Google-benchmark microbenchmarks of the fast-path primitives.
//
// These complement the paper-table harnesses: per-operation timings for the
// building blocks the per-packet cost decomposition (Section 5.6) is made
// of, in a form suited for regression tracking.
#include <benchmark/benchmark.h>

#include "core/device.hpp"
#include "core/field_modifier.hpp"
#include "membuf/buf_array.hpp"
#include "membuf/mempool.hpp"
#include "proto/checksum.hpp"
#include "proto/crc32.hpp"
#include "proto/packet_view.hpp"

namespace mc = moongen::core;
namespace mb = moongen::membuf;
namespace mp = moongen::proto;

namespace {

mb::Mempool::InitFn udp_prefill(std::size_t size) {
  return [size](mb::PktBuf& buf) {
    buf.set_length(size);
    mp::UdpPacketView view{buf.bytes()};
    mp::UdpFillOptions opts;
    opts.packet_length = size;
    view.fill(opts);
  };
}

void BM_MempoolAllocFree(benchmark::State& state) {
  mb::Mempool pool(4096, udp_prefill(60));
  mb::BufArray bufs(pool, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    bufs.alloc(60);
    bufs.free_all();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MempoolAllocFree)->Arg(1)->Arg(16)->Arg(64)->Arg(256);

// Multi-threaded alloc/free on ONE pool: measures the spinlock under
// contention (the PAUSE-backoff path; threads > 1 only exercises true
// contention on multi-core hosts). Batch of 64 mirrors the device burst
// size, so the lock is taken once per 64 buffers.
void BM_MempoolContention(benchmark::State& state) {
  static mb::Mempool* pool = nullptr;
  if (state.thread_index() == 0) pool = new mb::Mempool(8192, udp_prefill(60));
  constexpr std::size_t kBatch = 64;
  mb::PktBuf* bufs[kBatch];
  for (auto _ : state) {
    const std::size_t n = pool->alloc_batch({bufs, kBatch}, 60);
    benchmark::DoNotOptimize(n);
    pool->free_batch({bufs, n});
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatch));
  if (state.thread_index() == 0) {
    delete pool;
    pool = nullptr;
  }
}
BENCHMARK(BM_MempoolContention)->Threads(1)->Threads(2)->Threads(4)->UseRealTime();

void BM_TxSend(benchmark::State& state) {
  mc::DeviceTable devices;
  auto& queue = devices.config(0, 1, 1).get_tx_queue(0);
  mb::Mempool pool(4096, udp_prefill(60));
  mb::BufArray bufs(pool, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    bufs.alloc(60);
    queue.send(bufs);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TxSend)->Arg(1)->Arg(64)->Arg(256);

void BM_UdpFill(benchmark::State& state) {
  std::vector<std::uint8_t> frame(128, 0);
  mp::UdpPacketView view{{frame.data(), 124}};
  mp::UdpFillOptions opts;
  opts.packet_length = 124;
  for (auto _ : state) {
    view.fill(opts);
    benchmark::DoNotOptimize(frame.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UdpFill);

void BM_Ipv4Checksum(benchmark::State& state) {
  std::vector<std::uint8_t> frame(64, 0);
  mp::UdpPacketView view{{frame.data(), 60}};
  view.fill(mp::UdpFillOptions{});
  for (auto _ : state) {
    mp::update_ipv4_checksum(view.ip());
    benchmark::DoNotOptimize(static_cast<std::uint16_t>(view.ip().header_checksum_be));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Ipv4Checksum);

void BM_UdpSoftwareChecksum(benchmark::State& state) {
  std::vector<std::uint8_t> frame(static_cast<std::size_t>(state.range(0)), 0);
  mp::UdpPacketView view{{frame.data(), frame.size()}};
  mp::UdpFillOptions opts;
  opts.packet_length = frame.size();
  view.fill(opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mp::udp_checksum_ipv4(view.ip(), view.l4_bytes()));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_UdpSoftwareChecksum)->Arg(60)->Arg(124)->Arg(1514);

void BM_EthernetCrc32(benchmark::State& state) {
  std::vector<std::uint8_t> frame(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mp::crc32(frame));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EthernetCrc32)->Arg(64)->Arg(1518);

void BM_TauswortheDraw(benchmark::State& state) {
  mc::Tausworthe rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TauswortheDraw);

void BM_LcgDraw(benchmark::State& state) {
  mc::Lcg rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LcgDraw);

void BM_ModifierProgram(benchmark::State& state) {
  std::vector<mc::FieldAction> actions;
  for (int i = 0; i < state.range(0); ++i) {
    actions.push_back({.field = {static_cast<std::uint16_t>(26 + 4 * i), 4},
                       .kind = mc::FieldAction::Kind::kRandom});
  }
  mc::ModifierProgram prog(std::move(actions));
  std::uint8_t pkt[128] = {};
  for (auto _ : state) {
    prog.apply(pkt);
    benchmark::DoNotOptimize(pkt);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModifierProgram)->Arg(1)->Arg(4)->Arg(8);

void BM_Classify(benchmark::State& state) {
  std::vector<std::uint8_t> frame(64, 0);
  mp::UdpPacketView view{{frame.data(), 60}};
  view.fill(mp::UdpFillOptions{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(mp::classify({frame.data(), 60}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Classify);

}  // namespace

BENCHMARK_MAIN();
