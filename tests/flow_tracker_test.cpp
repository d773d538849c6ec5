// Tests for sequence stamping and loss/reorder/duplication accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "core/device.hpp"
#include "core/flow_tracker.hpp"
#include "membuf/buf_array.hpp"
#include "membuf/mempool.hpp"
#include "proto/checksum.hpp"
#include "proto/packet_view.hpp"

namespace mc = moongen::core;
namespace mb = moongen::membuf;
namespace mp = moongen::proto;

namespace {

constexpr std::size_t kOffset = mp::UdpPacketView::kHeaderStack;  // after UDP header

std::vector<std::uint8_t> stamped_packet(mc::SequenceStamper& stamper) {
  std::vector<std::uint8_t> pkt(64, 0);
  stamper.stamp(pkt.data());
  return pkt;
}

}  // namespace

TEST(SequenceStamper, WritesMarkerAndIncrements) {
  mc::SequenceStamper stamper(/*flow_id=*/7, /*payload_offset=*/0);
  auto p0 = stamped_packet(stamper);
  auto p1 = stamped_packet(stamper);
  mc::SequenceMarker m0, m1;
  std::memcpy(&m0, p0.data(), sizeof(m0));
  std::memcpy(&m1, p1.data(), sizeof(m1));
  EXPECT_EQ(mp::ntoh32(m0.magic_be), mc::SequenceMarker::kMagic);
  EXPECT_EQ(mp::ntoh32(m0.flow_id_be), 7u);
  EXPECT_EQ(mp::ntoh64(m0.sequence_be), 0u);
  EXPECT_EQ(mp::ntoh64(m1.sequence_be), 1u);
  EXPECT_EQ(stamper.stamped(), 2u);
}

TEST(SequenceTracker, PerfectStreamHasNoAnomalies) {
  mc::SequenceTracker tracker;
  for (std::uint64_t s = 0; s < 10'000; ++s) tracker.feed_sequence(s);
  const auto r = tracker.report();
  EXPECT_EQ(r.received, 10'000u);
  EXPECT_EQ(r.unique, 10'000u);
  EXPECT_EQ(r.lost, 0u);
  EXPECT_EQ(r.reordered, 0u);
  EXPECT_EQ(r.duplicates, 0u);
  EXPECT_EQ(r.highest_seq, 9'999u);
}

TEST(SequenceTracker, CountsLossGaps) {
  mc::SequenceTracker tracker;
  for (std::uint64_t s = 0; s < 1'000; ++s) {
    if (s % 10 == 3) continue;  // drop every 10th
    tracker.feed_sequence(s);
  }
  const auto r = tracker.report();
  EXPECT_EQ(r.lost, 100u);
  EXPECT_EQ(r.unique, 900u);
}

TEST(SequenceTracker, DetectsReorderingWithoutFalseLoss) {
  mc::SequenceTracker tracker;
  // Swap every adjacent pair: 1,0,3,2,...
  for (std::uint64_t s = 0; s < 1'000; s += 2) {
    tracker.feed_sequence(s + 1);
    tracker.feed_sequence(s);
  }
  const auto r = tracker.report();
  EXPECT_EQ(r.lost, 0u);
  EXPECT_EQ(r.reordered, 500u);
  EXPECT_EQ(r.duplicates, 0u);
}

TEST(SequenceTracker, DetectsDuplicates) {
  mc::SequenceTracker tracker;
  for (std::uint64_t s = 0; s < 100; ++s) {
    tracker.feed_sequence(s);
    if (s % 4 == 0) tracker.feed_sequence(s);  // duplicate every 4th
  }
  const auto r = tracker.report();
  EXPECT_EQ(r.duplicates, 25u);
  EXPECT_EQ(r.unique, 100u);
  EXPECT_EQ(r.lost, 0u);
}

TEST(SequenceTracker, RandomPermutationWithinWindowIsLossFree) {
  std::mt19937_64 rng(99);
  std::vector<std::uint64_t> seqs(2'000);
  for (std::uint64_t s = 0; s < seqs.size(); ++s) seqs[s] = s;
  // Shuffle within blocks much smaller than the window.
  for (std::size_t start = 0; start < seqs.size(); start += 100) {
    std::shuffle(seqs.begin() + static_cast<std::ptrdiff_t>(start),
                 seqs.begin() + static_cast<std::ptrdiff_t>(start + 100), rng);
  }
  mc::SequenceTracker tracker;
  for (auto s : seqs) tracker.feed_sequence(s);
  const auto r = tracker.report();
  EXPECT_EQ(r.unique, 2'000u);
  EXPECT_EQ(r.lost, 0u);
  EXPECT_EQ(r.duplicates, 0u);
  EXPECT_GT(r.reordered, 0u);
}

TEST(SequenceTracker, HugeJumpDoesNotAliasOldEpochs) {
  mc::SequenceTracker tracker(64);  // small window: 4096 sequence bits
  tracker.feed_sequence(0);
  tracker.feed_sequence(1'000'000);  // jump far beyond the window
  // Sequence 1'000'000 - 4096 aliases bitmap position of an old epoch;
  // it must be classified stale, not duplicate.
  tracker.feed_sequence(999'999 - 4096);
  const auto r = tracker.report();
  EXPECT_EQ(r.duplicates, 0u);
  EXPECT_EQ(r.stale, 1u);
}

TEST(SequenceTracker, FeedParsesMarkerFromPacketBytes) {
  mc::SequenceStamper stamper(1, kOffset);
  mc::SequenceTracker tracker;
  std::vector<std::uint8_t> pkt(64, 0);
  for (int i = 0; i < 5; ++i) {
    stamper.stamp(pkt.data());
    EXPECT_TRUE(tracker.feed(pkt.data(), pkt.size(), kOffset));
  }
  EXPECT_EQ(tracker.report().unique, 5u);
  // Unmarked packet is rejected.
  std::vector<std::uint8_t> plain(64, 0);
  EXPECT_FALSE(tracker.feed(plain.data(), plain.size(), kOffset));
  // Truncated packet is rejected.
  EXPECT_FALSE(tracker.feed(pkt.data(), kOffset + 4, kOffset));
}

TEST(SequenceTracker, EndToEndOverLoopbackDevices) {
  mc::DeviceTable devices;
  auto& tx = devices.config(0, 1, 1);
  auto& rx = devices.config(1, 1, 1);
  tx.connect_to(rx);
  mb::Mempool pool(512, [](mb::PktBuf& buf) {
    buf.set_length(124);
    mp::UdpPacketView view{buf.bytes()};
    mp::UdpFillOptions opts;
    opts.packet_length = 124;
    view.fill(opts);
  });
  mc::SequenceStamper stamper(3, kOffset);
  mc::SequenceTracker tracker;
  mb::BufArray bufs(pool, 32);
  for (int batch = 0; batch < 4; ++batch) {
    bufs.alloc(124);
    for (auto* buf : bufs) stamper.stamp(buf->data());
    tx.get_tx_queue(0).send(bufs);
  }
  mb::BufArray rxb(256);
  rx.get_rx_queue(0).recv(rxb);
  for (auto* buf : rxb) tracker.feed(buf->data(), buf->length(), kOffset);
  rxb.free_all();
  const auto r = tracker.report();
  EXPECT_EQ(r.unique, 128u);
  EXPECT_EQ(r.lost, 0u);
}

// ---------------------------------------------------------------------------
// IPsec views (paper Section 3.4: IPsec example traffic)
// ---------------------------------------------------------------------------

TEST(IpsecView, EspFillRoundTrip) {
  std::vector<std::uint8_t> frame(96, 0);
  mp::EspPacketView view{{frame.data(), frame.size()}};
  view.fill(96, mp::MacAddress::from_uint64(1), mp::MacAddress::from_uint64(2),
            mp::IPv4Address{10, 0, 0, 1}, mp::IPv4Address{10, 0, 0, 2}, /*spi=*/0xdeadbeef,
            /*sequence=*/42);
  EXPECT_EQ(view.ip().ip_protocol(), mp::IpProtocol::kEsp);
  EXPECT_TRUE(mp::verify_ipv4_checksum(view.ip()));
  EXPECT_EQ(view.esp().spi(), 0xdeadbeefu);
  EXPECT_EQ(mp::ntoh32(view.esp().sequence_be), 42u);
  const auto pc = mp::classify({frame.data(), frame.size()});
  ASSERT_TRUE(pc.has_value());
  EXPECT_EQ(pc->l4_protocol, mp::IpProtocol::kEsp);
  EXPECT_FALSE(pc->is_udp);
}
