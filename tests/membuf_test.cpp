// Unit tests for the mempool / packet-buffer / batch-array layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <set>
#include <vector>

#include "membuf/buf_array.hpp"
#include "membuf/mempool.hpp"
#include "membuf/ring.hpp"
#include "proto/checksum.hpp"
#include "proto/packet_view.hpp"

namespace mb = moongen::membuf;
namespace mp = moongen::proto;

TEST(Mempool, AllocAndFreeSingle) {
  mb::Mempool pool(16);
  EXPECT_EQ(pool.capacity(), 16u);
  EXPECT_EQ(pool.available(), 16u);
  mb::PktBuf* buf = pool.alloc(60);
  ASSERT_NE(buf, nullptr);
  EXPECT_EQ(buf->length(), 60u);
  EXPECT_EQ(buf->pool(), &pool);
  EXPECT_EQ(pool.available(), 15u);
  pool.free(buf);
  EXPECT_EQ(pool.available(), 16u);
}

TEST(Mempool, ExhaustionReturnsNull) {
  mb::Mempool pool(4);
  std::vector<mb::PktBuf*> bufs;
  for (int i = 0; i < 4; ++i) {
    mb::PktBuf* b = pool.alloc(60);
    ASSERT_NE(b, nullptr);
    bufs.push_back(b);
  }
  EXPECT_EQ(pool.alloc(60), nullptr);
  pool.free_batch(bufs);
  EXPECT_NE(pool.alloc(60), nullptr);
}

TEST(Mempool, BatchAllocPartialOnExhaustion) {
  mb::Mempool pool(10);
  std::vector<mb::PktBuf*> out(16, nullptr);
  const std::size_t n = pool.alloc_batch({out.data(), out.size()}, 124);
  EXPECT_EQ(n, 10u);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NE(out[i], nullptr);
    EXPECT_EQ(out[i]->length(), 124u);
  }
  EXPECT_EQ(out[10], nullptr);
}

TEST(Mempool, PreFillCallbackRunsOncePerBuffer) {
  int calls = 0;
  mb::Mempool pool(8, [&](mb::PktBuf& buf) {
    ++calls;
    buf.data()[0] = 0x42;
  });
  EXPECT_EQ(calls, 8);
  mb::PktBuf* buf = pool.alloc(60);
  ASSERT_NE(buf, nullptr);
  EXPECT_EQ(buf->data()[0], 0x42);
  // Recycling does not re-run the init function and keeps contents (DPDK
  // semantics, paper Section 4.2).
  buf->data()[0] = 0x99;
  pool.free(buf);
  mb::PktBuf* again = pool.alloc(60);
  EXPECT_EQ(calls, 8);
  EXPECT_EQ(again->data()[0], 0x99);
}

TEST(Mempool, RecycleResetsFlagsButNotContents) {
  mb::Mempool pool(2);
  mb::PktBuf* buf = pool.alloc(60);
  buf->flags().udp_checksum = true;
  buf->flags().invalid_crc = true;
  pool.free(buf);
  mb::PktBuf* again = pool.alloc(60);
  EXPECT_FALSE(again->flags().udp_checksum);
  EXPECT_FALSE(again->flags().invalid_crc);
}

TEST(Mempool, LowWatermarkTracksWorstCase) {
  mb::Mempool pool(8);
  std::vector<mb::PktBuf*> bufs(6, nullptr);
  pool.alloc_batch({bufs.data(), bufs.size()}, 60);
  EXPECT_EQ(pool.low_watermark(), 2u);
  pool.free_batch(bufs);
  EXPECT_EQ(pool.low_watermark(), 2u);  // watermark is sticky
}

TEST(Mempool, AllBuffersDistinct) {
  mb::Mempool pool(64);
  std::vector<mb::PktBuf*> bufs(64, nullptr);
  pool.alloc_batch({bufs.data(), bufs.size()}, 60);
  std::set<mb::PktBuf*> unique(bufs.begin(), bufs.end());
  EXPECT_EQ(unique.size(), 64u);
}

TEST(BufArray, AllocFillsFullBatch) {
  mb::Mempool pool(256);
  mb::BufArray bufs(pool, 64);
  EXPECT_EQ(bufs.alloc(60), 64u);
  EXPECT_EQ(bufs.size(), 64u);
  for (auto* buf : bufs) EXPECT_EQ(buf->length(), 60u);
  bufs.free_all();
  EXPECT_EQ(bufs.size(), 0u);
  EXPECT_EQ(pool.available(), 256u);
}

TEST(BufArray, FreeAllHandlesMixedPools) {
  mb::Mempool pool_a(8);
  mb::Mempool pool_b(8);
  mb::BufArray bufs(4);  // RX-style, no owning pool
  bufs.storage()[0] = pool_a.alloc(60);
  bufs.storage()[1] = pool_b.alloc(60);
  bufs.storage()[2] = pool_a.alloc(60);
  bufs.storage()[3] = nullptr;
  bufs.set_size(4);
  bufs.free_all();
  EXPECT_EQ(pool_a.available(), 8u);
  EXPECT_EQ(pool_b.available(), 8u);
}

namespace {

/// Builds a pool whose buffers are pre-filled UDP packets, as in Listing 2.
mb::Mempool make_udp_pool(std::size_t n) {
  return mb::Mempool(n, [](mb::PktBuf& buf) {
    buf.set_length(124);
    mp::UdpPacketView view{buf.bytes()};
    mp::UdpFillOptions opts;
    opts.packet_length = 124;
    opts.udp_src = 1234;
    opts.udp_dst = 42;
    view.fill(opts);
  });
}

}  // namespace

TEST(BufArray, OffloadUdpChecksumsWritesPseudoHeaderSum) {
  auto pool = make_udp_pool(8);
  mb::BufArray bufs(pool, 4);
  bufs.alloc(124);
  bufs.offload_udp_checksums();
  for (auto* buf : bufs) {
    EXPECT_TRUE(buf->flags().udp_checksum);
    EXPECT_TRUE(buf->flags().ip_checksum);
    // Emulated NIC contract: finishing the checksum over the L4 segment
    // starting from the stored pseudo-header sum must yield the same value
    // as the full software checksum.
    mp::UdpPacketView view{buf->bytes()};
    auto l4 = view.l4_bytes();
    const std::uint16_t stored_be = view.udp().checksum_be;
    view.udp().checksum_be = 0;
    const std::uint16_t software = mp::udp_checksum_ipv4(view.ip(), l4);
    // NIC model: continue the sum over payload with checksum field = stored.
    std::uint32_t sum = static_cast<std::uint32_t>(mp::ntoh16(stored_be));
    view.udp().checksum_be = 0;
    sum = mp::checksum_partial(l4, sum);
    EXPECT_EQ(mp::checksum_finish(sum), software);
  }
}

TEST(BufArray, OffloadTcpSetsFlags) {
  mb::Mempool pool(8, [](mb::PktBuf& buf) {
    buf.set_length(60);
    mp::TcpPacketView view{buf.bytes()};
    view.fill(mp::TcpFillOptions{});
  });
  mb::BufArray bufs(pool, 8);
  bufs.alloc(60);
  bufs.offload_tcp_checksums();
  for (auto* buf : bufs) EXPECT_TRUE(buf->flags().tcp_checksum);
}

TEST(BufArray, IndexingAndSpans) {
  mb::Mempool pool(8);
  mb::BufArray bufs(pool, 8);
  bufs.alloc(60);
  EXPECT_EQ(bufs.packets().size(), 8u);
  EXPECT_EQ(bufs[0], bufs.packets()[0]);
  bufs.free_all();
}

// ---------------------------------------------------------------------------
// BoundedRing capacity changes
// ---------------------------------------------------------------------------

TEST(BoundedRing, ShrinkBelowFillDropsNewest) {
  mb::BoundedRing<int> ring(16);
  for (int i = 0; i < 10; ++i) ring.push_back(i);
  // An RX ring reprogrammed smaller keeps the oldest descriptors: the
  // elements already handed to hardware stay, the newest are dropped.
  ring.set_capacity(4);
  EXPECT_EQ(ring.capacity(), 4u);
  ASSERT_EQ(ring.size(), 4u);
  EXPECT_TRUE(ring.full());
  for (int i = 0; i < 4; ++i) EXPECT_EQ(ring.pop_front(), i);
  EXPECT_TRUE(ring.empty());
}

TEST(BoundedRing, ShrinkAboveFillKeepsEverything) {
  mb::BoundedRing<int> ring(16);
  for (int i = 0; i < 3; ++i) ring.push_back(i);
  ring.set_capacity(8);
  EXPECT_EQ(ring.size(), 3u);
  // Growing back restores headroom without disturbing contents.
  ring.set_capacity(16);
  for (int i = 3; i < 16; ++i) ring.push_back(i);
  EXPECT_TRUE(ring.full());
  for (int i = 0; i < 16; ++i) EXPECT_EQ(ring.pop_front(), i);
}

TEST(BoundedRing, ShrinkAfterWrapDropsNewest) {
  mb::BoundedRing<int> ring(8);
  // Wrap the head/tail indices around the slot array first.
  for (int i = 0; i < 6; ++i) ring.push_back(i);
  for (int i = 0; i < 6; ++i) ring.pop_front();
  for (int i = 100; i < 108; ++i) ring.push_back(i);
  ring.set_capacity(3);
  ASSERT_EQ(ring.size(), 3u);
  for (int i = 100; i < 103; ++i) EXPECT_EQ(ring.pop_front(), i);
}

TEST(BoundedRing, ShrinkWhileExactlyFullKeepsOldestAndStaysUsable) {
  // The edge between the shrink paths: size() == old capacity == fill.
  mb::BoundedRing<int> ring(8);
  for (int i = 0; i < 8; ++i) ring.push_back(i);
  ASSERT_TRUE(ring.full());
  ring.set_capacity(5);
  EXPECT_TRUE(ring.full());
  ASSERT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.front(), 0);
  // The ring must keep working after the truncation: drain two, refill two,
  // and FIFO order holds across the seam.
  EXPECT_EQ(ring.pop_front(), 0);
  EXPECT_EQ(ring.pop_front(), 1);
  ring.push_back(50);
  ring.push_back(51);
  EXPECT_TRUE(ring.full());
  const int expect[] = {2, 3, 4, 50, 51};
  for (int v : expect) EXPECT_EQ(ring.pop_front(), v);
  EXPECT_TRUE(ring.empty());

  // Degenerate shrink: capacity 0 empties the ring; growing revives it.
  ring.push_back(7);
  ring.set_capacity(0);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.full());  // 0 >= 0: a zero-capacity ring is always full
  ring.set_capacity(2);
  ring.push_back(9);
  EXPECT_EQ(ring.pop_front(), 9);
}

TEST(BoundedRing, PropertyRandomizedGrowShrinkMatchesDequeModel) {
  // Property test: under a random interleaving of push/pop/clear/reserve
  // and capacity cycling, the ring agrees with a std::deque model where
  // set_capacity(c) truncates to the first min(size, c) elements (oldest
  // kept, newest dropped). Runs long enough for head_/tail_ to wrap the
  // backing store many times at several different slot counts.
  mb::BoundedRing<unsigned> ring(1);
  std::deque<unsigned> model;
  std::size_t cap = 1;
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto rnd = [&state] {
    // splitmix64: deterministic, no <random> heft.
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  unsigned next_value = 0;
  for (int op = 0; op < 30'000; ++op) {
    switch (rnd() % 10) {
      case 0: {  // cycle the capacity through [1, 24]
        cap = 1 + rnd() % 24;
        ring.set_capacity(cap);
        if (model.size() > cap) model.resize(cap);  // drop newest
        break;
      }
      case 1:
        ring.clear();
        model.clear();
        break;
      case 2:
        ring.reserve(rnd() % 32);  // storage hint only: no visible effect
        break;
      case 3:
      case 4:
        if (!model.empty()) {
          ASSERT_EQ(ring.front(), model.front());
          ASSERT_EQ(ring.pop_front(), model.front());
          model.pop_front();
        }
        break;
      default:  // bias toward pushes so the ring regularly rides full
        if (!ring.full()) {
          ring.push_back(next_value);
          model.push_back(next_value);
          ++next_value;
        } else if (!model.empty()) {
          ASSERT_EQ(ring.pop_front(), model.front());
          model.pop_front();
        }
        break;
    }
    ASSERT_EQ(ring.size(), model.size());
    ASSERT_EQ(ring.empty(), model.empty());
    ASSERT_EQ(ring.full(), model.size() >= cap);
    if (!model.empty()) {
      ASSERT_EQ(ring.front(), model.front());
    }
  }
  // Final drain: full remaining contents agree element-for-element.
  while (!model.empty()) {
    ASSERT_EQ(ring.pop_front(), model.front());
    model.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

// ---------------------------------------------------------------------------
// BufArray shortfall
// ---------------------------------------------------------------------------

TEST(BufArray, AllocTracksShortfall) {
  mb::Mempool pool(8);
  mb::BufArray bufs(pool, 16);
  EXPECT_EQ(bufs.alloc(60), 8u);  // pool smaller than the batch
  EXPECT_EQ(bufs.last_shortfall(), 8u);
  bufs.free_all();
  EXPECT_EQ(bufs.alloc(60, 4), 4u);
  EXPECT_EQ(bufs.last_shortfall(), 0u);
  bufs.free_all();
}
