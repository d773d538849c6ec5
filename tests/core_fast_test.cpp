// Tests for the fast-path device API (Listings 1-3 semantics), the task
// system, pipes, and the field-modifier engine.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "core/device.hpp"
#include "core/field_modifier.hpp"
#include "core/task.hpp"
#include "proto/packet_view.hpp"

namespace mc = moongen::core;
namespace mb = moongen::membuf;
namespace mp = moongen::proto;

// ---------------------------------------------------------------------------
// Fast-path device
// ---------------------------------------------------------------------------

TEST(FastDevice, ConfigReturnsStableInstances) {
  mc::DeviceTable devices;
  auto& dev = devices.config(0, 1, 2);
  auto& again = devices.config(0, 1, 2);
  EXPECT_EQ(&dev, &again);
  EXPECT_EQ(dev.num_tx_queues(), 2);
  EXPECT_THROW(devices.config(-1), std::out_of_range);
  EXPECT_THROW(devices.config(1000), std::out_of_range);
}

TEST(FastDevice, MacDerivedFromId) {
  mc::DeviceTable devices;
  auto& dev = devices.config(3);
  EXPECT_EQ(dev.mac().to_string(), "02:00:00:00:00:03");
}

TEST(FastDevice, SendRecyclesOnlyAfterRingWraps) {
  mc::DeviceTable devices;
  auto& dev = devices.config(0, 1, 1);
  mb::Mempool pool(2048);
  mb::BufArray bufs(pool, 64);
  auto& q = dev.get_tx_queue(0);

  // First batch: buffers leave the pool and are NOT immediately recycled —
  // the asynchronous-send contract of Section 4.2.
  bufs.alloc(60);
  q.send(bufs);
  EXPECT_EQ(bufs.size(), 0u);  // ownership transferred
  EXPECT_EQ(pool.available(), 2048u - 64u);

  // After the ring wraps (1024 descriptors), old buffers come back.
  for (int batch = 0; batch < 40; ++batch) {
    const std::size_t n = bufs.alloc(60);
    ASSERT_GT(n, 0u) << "pool prematurely exhausted at batch " << batch;
    q.send(bufs);
  }
  // Pool never runs dry because recycling keeps pace.
  EXPECT_GT(pool.available(), 0u);
  EXPECT_EQ(q.sent_packets(), 41u * 64u);
}

TEST(FastDevice, LoopbackDeliversPacketContents) {
  mc::DeviceTable devices;
  auto& tx_dev = devices.config(0, 1, 1);
  auto& rx_dev = devices.config(1, 1, 1);
  tx_dev.connect_to(rx_dev);

  mb::Mempool pool(256, [](mb::PktBuf& buf) {
    buf.set_length(124);
    mp::UdpPacketView view{buf.bytes()};
    mp::UdpFillOptions opts;
    opts.packet_length = 124;
    opts.udp_dst = 4242;
    view.fill(opts);
  });
  mb::BufArray txb(pool, 32);
  txb.alloc(124);
  tx_dev.get_tx_queue(0).send(txb);

  mb::BufArray rxb(64);
  const auto n = rx_dev.get_rx_queue(0).recv(rxb);
  ASSERT_EQ(n, 32u);
  for (auto* buf : rxb) {
    mp::UdpPacketView view{buf->bytes()};
    EXPECT_EQ(view.udp().dst_port(), 4242);
    EXPECT_EQ(buf->length(), 124u);
  }
  rxb.free_all();
}

TEST(FastDevice, LoopbackDropsWhenRxRingFull) {
  mc::DeviceTable devices;
  auto& tx_dev = devices.config(0, 1, 1);
  auto& rx_dev = devices.config(1, 1, 1);
  tx_dev.connect_to(rx_dev);
  mb::Mempool pool(16384);
  mb::BufArray bufs(pool, 64);
  // Push far more than the RX ring (4096) without draining.
  for (int i = 0; i < 128; ++i) {
    if (bufs.alloc(60) == 0) break;
    tx_dev.get_tx_queue(0).send(bufs);
  }
  EXPECT_GT(rx_dev.get_rx_queue(0).ring_drops(), 0u);
}

TEST(FastDevice, RatePacingRoughlyLimitsThroughput) {
  mc::DeviceTable devices;
  auto& dev = devices.config(0, 1, 1);
  mb::Mempool pool(2048);
  mb::BufArray bufs(pool, 64);
  auto& q = dev.get_tx_queue(0);
  q.set_rate_mbit(672.0);  // 1 Mpps of 64 B frames wire rate

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t sent = 0;
  while (sent < 100'000) {
    bufs.alloc(60);
    sent += q.send(bufs);
  }
  const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  const double mpps = static_cast<double>(sent) / secs / 1e6;
  EXPECT_NEAR(mpps, 1.0, 0.15);
}

// ---------------------------------------------------------------------------
// Task system
// ---------------------------------------------------------------------------

TEST(Tasks, LaunchAndWaitRunsAllTasks) {
  mc::reset_run_state();
  std::atomic<int> ran{0};
  mc::TaskSet tasks;
  for (int i = 0; i < 4; ++i) tasks.launch("slave", [&ran](int x) { ran += x; }, 1);
  tasks.wait();
  EXPECT_EQ(ran.load(), 4);
}

TEST(Tasks, StopAfterTerminatesRunLoop) {
  mc::reset_run_state();
  ASSERT_TRUE(mc::running());
  std::atomic<std::uint64_t> iterations{0};
  mc::TaskSet tasks;
  tasks.launch("loop", [&] {
    while (mc::running()) iterations.fetch_add(1, std::memory_order_relaxed);
  });
  mc::stop_after(0.05);
  tasks.wait();
  EXPECT_GT(iterations.load(), 0u);
  EXPECT_FALSE(mc::running());
  mc::reset_run_state();
}

TEST(Tasks, StopAfterFromPreviousRunDoesNotFire) {
  // Regression: a stop_after armed in one experiment must not terminate the
  // next one. The detached timer thread captures the run generation and
  // becomes a no-op once reset_run_state() starts a new run.
  mc::reset_run_state();
  mc::stop_after(0.05);
  mc::reset_run_state();  // new experiment begins before the timer fires
  ASSERT_TRUE(mc::running());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_TRUE(mc::running());  // stale timer fired into the void
  mc::stop_after(0.0);         // a fresh timer still works
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(mc::running());
  mc::reset_run_state();
}

TEST(Tasks, ResetRunStateAdvancesGeneration) {
  const auto g0 = mc::run_generation();
  mc::reset_run_state();
  EXPECT_GT(mc::run_generation(), g0);
}

// ---------------------------------------------------------------------------
// Field modifier engine and RNGs (Section 5.6.2)
// ---------------------------------------------------------------------------

TEST(FieldModifier, CounterWrapsAtRange) {
  mc::ModifierProgram prog({{.field = {0, 1}, .kind = mc::FieldAction::Kind::kCounter,
                             .value = 10, .range = 3}});
  std::uint8_t pkt[4] = {};
  std::vector<int> seen;
  for (int i = 0; i < 7; ++i) {
    prog.apply(pkt);
    seen.push_back(pkt[0]);
  }
  EXPECT_EQ(seen, (std::vector<int>{10, 11, 12, 10, 11, 12, 10}));
}

TEST(FieldModifier, RandomStaysInRange) {
  mc::ModifierProgram prog({{.field = {0, 4}, .kind = mc::FieldAction::Kind::kRandom,
                             .value = 100, .range = 50}});
  std::uint8_t pkt[8] = {};
  for (int i = 0; i < 1000; ++i) {
    prog.apply(pkt);
    const std::uint32_t v = static_cast<std::uint32_t>(pkt[0]) << 24 |
                            static_cast<std::uint32_t>(pkt[1]) << 16 |
                            static_cast<std::uint32_t>(pkt[2]) << 8 | pkt[3];
    EXPECT_GE(v, 100u);
    EXPECT_LT(v, 150u);
  }
}

TEST(FieldModifier, WritesBigEndian) {
  mc::ModifierProgram prog({{.field = {0, 2}, .kind = mc::FieldAction::Kind::kConstant,
                             .value = 0x1234}});
  // A 4-byte buffer: the store is a 2-byte case of a switch whose 4-byte
  // case the compiler sees too. Bytes past the field stay untouched.
  std::uint8_t pkt[4] = {};
  prog.apply(pkt);
  EXPECT_EQ(pkt[0], 0x12);
  EXPECT_EQ(pkt[1], 0x34);
  EXPECT_EQ(pkt[2], 0);
  EXPECT_EQ(pkt[3], 0);
}

TEST(FieldModifier, TauswortheLooksUniform) {
  mc::Tausworthe rng(42);
  // Chi-squared-ish sanity check over 16 buckets.
  int buckets[16] = {};
  const int n = 160'000;
  for (int i = 0; i < n; ++i) buckets[rng.next() >> 28]++;
  for (int b : buckets) EXPECT_NEAR(b, n / 16, n / 16 / 5);
}

TEST(FieldModifier, TauswortheSequencesDifferBySeed) {
  mc::Tausworthe a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(FieldModifier, LcgMatchesKnownRecurrence) {
  mc::Lcg lcg(1);
  EXPECT_EQ(lcg.next(), 1u * 1664525u + 1013904223u);
}

// ---------------------------------------------------------------------------
// TxQueue robustness: short-batch surfacing
// ---------------------------------------------------------------------------

TEST(FastDevice, ShortBatchesAreCounted) {
  mc::DeviceTable devices;
  auto& dev = devices.config(0, 1, 1);
  mb::Mempool pool(8);
  mb::BufArray bufs(pool, 16);  // batch larger than the pool
  auto& q = dev.get_tx_queue(0);

  ASSERT_EQ(bufs.alloc(60), 8u);
  EXPECT_EQ(q.send(bufs), 8u);
  EXPECT_EQ(q.short_batches(), 1u);
  EXPECT_EQ(q.sent_packets(), 8u);
}
