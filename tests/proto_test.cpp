// Unit tests for the wire-format module (addresses, headers, checksums,
// CRC32, packet views, classification).
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "proto/checksum.hpp"
#include "proto/crc32.hpp"
#include "proto/headers.hpp"
#include "proto/ip_address.hpp"
#include "proto/mac_address.hpp"
#include "proto/packet_view.hpp"

namespace mp = moongen::proto;

// ---------------------------------------------------------------------------
// MAC addresses
// ---------------------------------------------------------------------------

TEST(MacAddress, ParseValid) {
  auto mac = mp::MacAddress::parse("10:11:12:13:14:15");
  ASSERT_TRUE(mac.has_value());
  EXPECT_EQ(mac->to_uint64(), 0x101112131415ull);
}

TEST(MacAddress, ParseUppercaseAndDashes) {
  auto mac = mp::MacAddress::parse("AA-BB-CC-DD-EE-FF");
  ASSERT_TRUE(mac.has_value());
  EXPECT_EQ(mac->to_string(), "aa:bb:cc:dd:ee:ff");
}

TEST(MacAddress, ParseRejectsMalformed) {
  EXPECT_FALSE(mp::MacAddress::parse("").has_value());
  EXPECT_FALSE(mp::MacAddress::parse("10:11:12:13:14").has_value());
  EXPECT_FALSE(mp::MacAddress::parse("10:11:12:13:14:15:16").has_value());
  EXPECT_FALSE(mp::MacAddress::parse("gg:11:12:13:14:15").has_value());
  EXPECT_FALSE(mp::MacAddress::parse("10:11:12:13:14:15 ").has_value());
  EXPECT_FALSE(mp::MacAddress::parse("101112131415").has_value());
}

TEST(MacAddress, RoundTrip) {
  const mp::MacAddress mac = mp::MacAddress::from_uint64(0x0123456789abull);
  auto parsed = mp::MacAddress::parse(mac.to_string());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, mac);
}

TEST(MacAddress, BroadcastAndMulticastPredicates) {
  EXPECT_TRUE(mp::kBroadcastMac.is_broadcast());
  EXPECT_TRUE(mp::kBroadcastMac.is_multicast());
  const auto unicast = mp::MacAddress::from_uint64(0x101112131415ull);
  EXPECT_FALSE(unicast.is_broadcast());
  EXPECT_FALSE(unicast.is_multicast());
  const auto mcast = mp::MacAddress::from_uint64(0x01005e000001ull);
  EXPECT_TRUE(mcast.is_multicast());
}

// ---------------------------------------------------------------------------
// IP addresses
// ---------------------------------------------------------------------------

TEST(IPv4Address, ParseValid) {
  auto ip = mp::IPv4Address::parse("192.168.1.1");
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->value, 0xC0A80101u);
  EXPECT_EQ(ip->to_string(), "192.168.1.1");
}

TEST(IPv4Address, ParseRejectsMalformed) {
  EXPECT_FALSE(mp::IPv4Address::parse("256.0.0.1").has_value());
  EXPECT_FALSE(mp::IPv4Address::parse("1.2.3").has_value());
  EXPECT_FALSE(mp::IPv4Address::parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(mp::IPv4Address::parse("1..3.4").has_value());
  EXPECT_FALSE(mp::IPv4Address::parse("a.b.c.d").has_value());
  EXPECT_FALSE(mp::IPv4Address::parse("").has_value());
  EXPECT_FALSE(mp::IPv4Address::parse("1.2.3.4 ").has_value());
}

TEST(IPv4Address, ArithmeticMatchesMoonGenIdiom) {
  // Listing 2: pkt.ip.src:set(baseIP + math.random(255) - 1)
  const auto base = mp::IPv4Address::parse("10.0.0.1").value();
  EXPECT_EQ((base + 254).to_string(), "10.0.0.255");
  EXPECT_EQ((base + 255).to_string(), "10.0.1.0");  // carries into next octet
  EXPECT_EQ((base - 2).to_string(), "9.255.255.255");
}

TEST(IPv4Address, NetworkOrderRoundTrip) {
  const auto ip = mp::IPv4Address{192, 168, 0, 42};
  EXPECT_EQ(mp::IPv4Address::from_network(ip.to_network()), ip);
}

TEST(IPv6Address, ParseFull) {
  auto ip = mp::IPv6Address::parse("2001:db8:0:0:0:0:0:1");
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->bytes[0], 0x20);
  EXPECT_EQ(ip->bytes[1], 0x01);
  EXPECT_EQ(ip->bytes[15], 0x01);
}

TEST(IPv6Address, ParseCompressed) {
  auto a = mp::IPv6Address::parse("2001:db8::1");
  auto b = mp::IPv6Address::parse("2001:db8:0:0:0:0:0:1");
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, *b);

  auto loopback = mp::IPv6Address::parse("::1");
  ASSERT_TRUE(loopback.has_value());
  EXPECT_EQ(loopback->bytes[15], 1);

  auto zero = mp::IPv6Address::parse("::");
  ASSERT_TRUE(zero.has_value());
  EXPECT_EQ(*zero, mp::IPv6Address{});
}

TEST(IPv6Address, ParseRejectsMalformed) {
  EXPECT_FALSE(mp::IPv6Address::parse("2001:db8::1::2").has_value());
  EXPECT_FALSE(mp::IPv6Address::parse("1:2:3:4:5:6:7").has_value());
  EXPECT_FALSE(mp::IPv6Address::parse("1:2:3:4:5:6:7:8:9").has_value());
  EXPECT_FALSE(mp::IPv6Address::parse("12345::1").has_value());
  EXPECT_FALSE(mp::IPv6Address::parse("xyz::1").has_value());
}

TEST(IPv6Address, PlusCarries) {
  auto ip = mp::IPv6Address::parse("2001:db8::ffff:ffff:ffff:ffff").value();
  const auto bumped = ip.plus(1);
  // Low 64 bits wrap to zero; high 64 bits unchanged (documented behaviour).
  for (int i = 8; i < 16; ++i) EXPECT_EQ(bumped.bytes[static_cast<std::size_t>(i)], 0);
  EXPECT_EQ(bumped.bytes[0], 0x20);
}

// ---------------------------------------------------------------------------
// Checksums
// ---------------------------------------------------------------------------

TEST(Checksum, Rfc1071ReferenceVector) {
  // Classic example from RFC 1071 section 3.
  const std::array<std::uint8_t, 8> data = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  const std::uint32_t partial = mp::checksum_partial(data);
  EXPECT_EQ(partial, 0x2ddf0u);
  // finish folds and complements: ~ (0xddf0 + 0x2) = ~0xddf2 = 0x220d.
  EXPECT_EQ(mp::checksum_finish(partial), mp::hton16(0x220d));
}

TEST(Checksum, OddLengthPadsWithZero) {
  const std::array<std::uint8_t, 3> data = {0x01, 0x02, 0x03};
  EXPECT_EQ(mp::checksum_partial(data), 0x0102u + 0x0300u);
}

TEST(Checksum, Ipv4HeaderComputeAndVerify) {
  mp::Ipv4Header ip{};
  ip.set_defaults();
  ip.protocol = static_cast<std::uint8_t>(mp::IpProtocol::kUdp);
  ip.set_total_length(110);
  ip.set_src(mp::IPv4Address{10, 0, 0, 1});
  ip.set_dst(mp::IPv4Address{192, 168, 1, 1});
  mp::update_ipv4_checksum(ip);
  EXPECT_NE(ip.header_checksum_be, 0);
  EXPECT_TRUE(mp::verify_ipv4_checksum(ip));
  ip.ttl = 63;  // any mutation must break the checksum
  EXPECT_FALSE(mp::verify_ipv4_checksum(ip));
}

TEST(Checksum, KnownIpv4HeaderVector) {
  // Wikipedia's worked IPv4 checksum example: 45 00 00 73 00 00 40 00 40 11
  // b8 61 c0 a8 00 01 c0 a8 00 c7 -> checksum 0xb861.
  mp::Ipv4Header ip{};
  ip.version_ihl = 0x45;
  ip.dscp_ecn = 0;
  ip.set_total_length(0x73);
  ip.identification_be = 0;
  ip.flags_fragment_be = mp::hton16(0x4000);
  ip.ttl = 0x40;
  ip.protocol = 0x11;
  ip.set_src(mp::IPv4Address{192, 168, 0, 1});
  ip.set_dst(mp::IPv4Address{192, 168, 0, 199});
  mp::update_ipv4_checksum(ip);
  EXPECT_EQ(mp::ntoh16(ip.header_checksum_be), 0xb861);
}

TEST(Checksum, UdpChecksumVerifiesToZeroFold) {
  // Build a UDP packet, compute its checksum in software, then check that
  // summing the whole L4 segment plus pseudo-header folds to zero.
  std::vector<std::uint8_t> frame(64, 0);
  mp::UdpPacketView view{{frame.data(), frame.size()}};
  mp::UdpFillOptions opts;
  opts.packet_length = 60;
  view.fill(opts);
  auto l4 = view.l4_bytes();
  view.udp().checksum_be = mp::udp_checksum_ipv4(view.ip(), l4);
  std::uint32_t sum = mp::ipv4_pseudo_header_sum(view.ip(), static_cast<std::uint16_t>(l4.size()));
  sum = mp::checksum_partial(l4, sum);
  EXPECT_EQ(mp::checksum_finish(sum), 0);
}

// ---------------------------------------------------------------------------
// CRC32 / FCS
// ---------------------------------------------------------------------------

TEST(Crc32, CheckValue) {
  // The standard CRC-32 check value: CRC("123456789") = 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(mp::crc32({reinterpret_cast<const std::uint8_t*>(s), 9}), 0xCBF43926u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  std::vector<std::uint8_t> data(1500);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 7 + 3);
  std::uint32_t crc = 0xFFFFFFFFu;
  crc = mp::crc32_update(crc, {data.data(), 100});
  crc = mp::crc32_update(crc, {data.data() + 100, data.size() - 100});
  EXPECT_EQ(~crc, mp::crc32(data));
}

TEST(Crc32, FcsRoundTrip) {
  std::vector<std::uint8_t> frame(64);
  for (std::size_t i = 0; i < frame.size(); ++i) frame[i] = static_cast<std::uint8_t>(i);
  mp::write_fcs(frame);
  EXPECT_TRUE(mp::verify_fcs(frame));
  frame[10] ^= 0x01;  // single bit flip must be detected
  EXPECT_FALSE(mp::verify_fcs(frame));
}

TEST(Crc32, VerifyRejectsTinyFrames) {
  std::vector<std::uint8_t> tiny(4, 0);
  EXPECT_FALSE(mp::verify_fcs(tiny));
}

// ---------------------------------------------------------------------------
// Packet views and fill
// ---------------------------------------------------------------------------

TEST(PacketView, UdpFillProducesConsistentLengths) {
  std::vector<std::uint8_t> frame(128, 0xAB);
  mp::UdpPacketView view{{frame.data(), 124}};
  mp::UdpFillOptions opts;
  opts.packet_length = 124;  // PKT_SIZE from Listing 2
  opts.eth_src = mp::MacAddress::from_uint64(0x020000000001);
  opts.eth_dst = mp::MacAddress::parse("10:11:12:13:14:15").value();
  opts.ip_dst = mp::IPv4Address::parse("192.168.1.1").value();
  opts.udp_src = 1234;
  opts.udp_dst = 42;
  view.fill(opts);

  EXPECT_EQ(view.eth().ether_type(), mp::EtherType::kIPv4);
  EXPECT_EQ(view.ip().total_length(), 124 - 14);
  EXPECT_EQ(view.ip().ip_protocol(), mp::IpProtocol::kUdp);
  EXPECT_TRUE(mp::verify_ipv4_checksum(view.ip()));
  EXPECT_EQ(view.udp().length(), 124 - 14 - 20);
  EXPECT_EQ(view.udp().src_port(), 1234);
  EXPECT_EQ(view.udp().dst_port(), 42);
}

TEST(PacketView, TcpFillDefaults) {
  std::vector<std::uint8_t> frame(64, 0);
  mp::TcpPacketView view{{frame.data(), 60}};
  mp::TcpFillOptions opts;
  opts.packet_length = 60;
  opts.tcp_seq = 12345;
  view.fill(opts);
  EXPECT_EQ(view.tcp().header_length(), 20u);
  EXPECT_EQ(view.tcp().seq(), 12345u);
  EXPECT_EQ(view.tcp().flags, mp::TcpHeader::kAck);
  EXPECT_TRUE(mp::verify_ipv4_checksum(view.ip()));
}

TEST(PacketView, Udp6Fill) {
  std::vector<std::uint8_t> frame(80, 0);
  mp::Udp6PacketView view{{frame.data(), 80}};
  view.fill(80, mp::MacAddress::from_uint64(1), mp::MacAddress::from_uint64(2),
            mp::IPv6Address::parse("2001:db8::1").value(),
            mp::IPv6Address::parse("2001:db8::2").value(), 1000, 2000);
  EXPECT_EQ(view.eth().ether_type(), mp::EtherType::kIPv6);
  EXPECT_EQ(view.ip6().version(), 6);
  EXPECT_EQ(view.ip6().payload_length(), 80 - 14 - 40);
  EXPECT_EQ(view.udp().length(), view.ip6().payload_length());
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

// ---------------------------------------------------------------------------
// Classification
// ---------------------------------------------------------------------------

TEST(Classify, UdpPacket) {
  std::vector<std::uint8_t> frame(64, 0);
  mp::UdpPacketView view{{frame.data(), 60}};
  mp::UdpFillOptions opts;
  opts.udp_dst = 319;
  view.fill(opts);
  auto pc = mp::classify({frame.data(), 60});
  ASSERT_TRUE(pc.has_value());
  EXPECT_EQ(pc->ether_type, mp::EtherType::kIPv4);
  EXPECT_TRUE(pc->is_udp);
  EXPECT_EQ(pc->udp_dst_port, 319);
  EXPECT_EQ(pc->l4_offset, 34u);
  EXPECT_EQ(pc->l7_offset, 42u);
}

TEST(Classify, PtpOverEthernet) {
  std::vector<std::uint8_t> frame(64, 0);
  mp::EthPacketView view{{frame.data(), 60}};
  view.eth().set_ether_type(mp::EtherType::kPtp);
  auto pc = mp::classify({frame.data(), 60});
  ASSERT_TRUE(pc.has_value());
  EXPECT_TRUE(pc->is_ptp_ethernet);
}

TEST(Classify, VlanTaggedIpv4) {
  std::vector<std::uint8_t> frame(64, 0);
  auto* eth = reinterpret_cast<mp::EthernetHeader*>(frame.data());
  eth->set_ether_type(mp::EtherType::kVlan);
  auto* vlan = reinterpret_cast<mp::VlanTag*>(frame.data() + 14);
  vlan->set(42, 3);
  vlan->ether_type_be = mp::hton16(0x0800);
  auto* ip = reinterpret_cast<mp::Ipv4Header*>(frame.data() + 18);
  ip->set_defaults();
  ip->protocol = static_cast<std::uint8_t>(mp::IpProtocol::kTcp);
  auto pc = mp::classify({frame.data(), 60});
  ASSERT_TRUE(pc.has_value());
  EXPECT_TRUE(pc->has_vlan);
  EXPECT_EQ(pc->ether_type, mp::EtherType::kIPv4);
  EXPECT_EQ(pc->l4_protocol, mp::IpProtocol::kTcp);
  EXPECT_EQ(pc->l3_offset, 18u);
}

TEST(Classify, SingleTagRecordsOuterVidPcp) {
  std::vector<std::uint8_t> frame(64, 0);
  auto* eth = reinterpret_cast<mp::EthernetHeader*>(frame.data());
  eth->set_ether_type(mp::EtherType::kVlan);
  auto* vlan = reinterpret_cast<mp::VlanTag*>(frame.data() + 14);
  vlan->set(42, 3);
  vlan->ether_type_be = mp::hton16(0x0800);
  auto* ip = reinterpret_cast<mp::Ipv4Header*>(frame.data() + 18);
  ip->set_defaults();
  auto pc = mp::classify({frame.data(), 60});
  ASSERT_TRUE(pc.has_value());
  EXPECT_EQ(pc->vlan_tags, 1);
  EXPECT_EQ(pc->outer_vid, 42);
  EXPECT_EQ(pc->outer_pcp, 3);
  EXPECT_EQ(pc->inner_vid, 0);
}

TEST(Classify, QinQStackedTags) {
  // 0x88A8 S-tag (vid 100, pcp 5) around a 0x8100 C-tag (vid 7, pcp 2)
  // around IPv4/TCP. Both tags must be recorded and L3 must land after
  // the inner tag, not on it.
  std::vector<std::uint8_t> frame(64, 0);
  auto* eth = reinterpret_cast<mp::EthernetHeader*>(frame.data());
  eth->set_ether_type(mp::EtherType::kQinQ);
  auto* s_tag = reinterpret_cast<mp::VlanTag*>(frame.data() + 14);
  s_tag->set(100, 5);
  s_tag->ether_type_be = mp::hton16(0x8100);
  auto* c_tag = reinterpret_cast<mp::VlanTag*>(frame.data() + 18);
  c_tag->set(7, 2);
  c_tag->ether_type_be = mp::hton16(0x0800);
  auto* ip = reinterpret_cast<mp::Ipv4Header*>(frame.data() + 22);
  ip->set_defaults();
  ip->protocol = static_cast<std::uint8_t>(mp::IpProtocol::kTcp);
  auto pc = mp::classify({frame.data(), 60});
  ASSERT_TRUE(pc.has_value());
  EXPECT_TRUE(pc->has_vlan);
  EXPECT_EQ(pc->vlan_tags, 2);
  EXPECT_EQ(pc->outer_vid, 100);
  EXPECT_EQ(pc->outer_pcp, 5);
  EXPECT_EQ(pc->inner_vid, 7);
  EXPECT_EQ(pc->inner_pcp, 2);
  EXPECT_EQ(pc->ether_type, mp::EtherType::kIPv4);
  EXPECT_EQ(pc->l3_offset, 22u);
  EXPECT_EQ(pc->l4_protocol, mp::IpProtocol::kTcp);
}

TEST(Classify, DoubleCTagStackedTags) {
  // Two 0x8100 tags (legacy QinQ) are also accepted.
  std::vector<std::uint8_t> frame(64, 0);
  auto* eth = reinterpret_cast<mp::EthernetHeader*>(frame.data());
  eth->set_ether_type(mp::EtherType::kVlan);
  auto* outer = reinterpret_cast<mp::VlanTag*>(frame.data() + 14);
  outer->set(200, 1);
  outer->ether_type_be = mp::hton16(0x8100);
  auto* inner = reinterpret_cast<mp::VlanTag*>(frame.data() + 18);
  inner->set(9, 6);
  inner->ether_type_be = mp::hton16(0x0800);
  auto* ip = reinterpret_cast<mp::Ipv4Header*>(frame.data() + 22);
  ip->set_defaults();
  auto pc = mp::classify({frame.data(), 60});
  ASSERT_TRUE(pc.has_value());
  EXPECT_EQ(pc->vlan_tags, 2);
  EXPECT_EQ(pc->outer_vid, 200);
  EXPECT_EQ(pc->inner_vid, 9);
  EXPECT_EQ(pc->l3_offset, 22u);
}

TEST(Classify, TruncatedVlanTagRejected) {
  // EtherType says VLAN but the frame ends mid-tag.
  std::vector<std::uint8_t> frame(16, 0);
  auto* eth = reinterpret_cast<mp::EthernetHeader*>(frame.data());
  eth->set_ether_type(mp::EtherType::kVlan);
  EXPECT_FALSE(mp::classify({frame.data(), frame.size()}).has_value());
}

TEST(Classify, TruncatedInnerTagRejected) {
  // Outer tag complete and pointing at an inner tag that is cut short.
  std::vector<std::uint8_t> frame(20, 0);
  auto* eth = reinterpret_cast<mp::EthernetHeader*>(frame.data());
  eth->set_ether_type(mp::EtherType::kQinQ);
  auto* s_tag = reinterpret_cast<mp::VlanTag*>(frame.data() + 14);
  s_tag->set(1, 0);
  s_tag->ether_type_be = mp::hton16(0x8100);
  EXPECT_FALSE(mp::classify({frame.data(), frame.size()}).has_value());
}

TEST(Classify, InnerSTagRejected) {
  // 0x88A8 must be outermost: 0x8100 wrapping 0x88A8 is malformed.
  std::vector<std::uint8_t> frame(64, 0);
  auto* eth = reinterpret_cast<mp::EthernetHeader*>(frame.data());
  eth->set_ether_type(mp::EtherType::kVlan);
  auto* outer = reinterpret_cast<mp::VlanTag*>(frame.data() + 14);
  outer->set(1, 0);
  outer->ether_type_be = mp::hton16(0x88A8);
  EXPECT_FALSE(mp::classify({frame.data(), 60}).has_value());
}

TEST(Classify, TripleTagRejected) {
  std::vector<std::uint8_t> frame(64, 0);
  auto* eth = reinterpret_cast<mp::EthernetHeader*>(frame.data());
  eth->set_ether_type(mp::EtherType::kVlan);
  for (int i = 0; i < 3; ++i) {
    auto* tag = reinterpret_cast<mp::VlanTag*>(frame.data() + 14 + 4 * i);
    tag->set(static_cast<std::uint16_t>(i + 1), 0);
    tag->ether_type_be = mp::hton16(i < 2 ? 0x8100 : 0x0800);
  }
  EXPECT_FALSE(mp::classify({frame.data(), 60}).has_value());
}

TEST(Classify, TruncatedFrameRejected) {
  std::vector<std::uint8_t> frame(10, 0);
  EXPECT_FALSE(mp::classify({frame.data(), frame.size()}).has_value());
}

TEST(Classify, TruncatedIpHeaderRejected) {
  std::vector<std::uint8_t> frame(20, 0);
  auto* eth = reinterpret_cast<mp::EthernetHeader*>(frame.data());
  eth->set_ether_type(mp::EtherType::kIPv4);
  EXPECT_FALSE(mp::classify({frame.data(), frame.size()}).has_value());
}

TEST(Classify, UnknownEtherTypePassesThrough) {
  std::vector<std::uint8_t> frame(64, 0);
  auto* eth = reinterpret_cast<mp::EthernetHeader*>(frame.data());
  eth->ether_type_be = mp::hton16(0x1234);
  auto pc = mp::classify({frame.data(), 60});
  ASSERT_TRUE(pc.has_value());
  EXPECT_FALSE(pc->is_udp);
  EXPECT_FALSE(pc->is_ptp_ethernet);
  EXPECT_FALSE(pc->l4_protocol.has_value());
}

// ---------------------------------------------------------------------------
// VLAN / header-layout invariants
// ---------------------------------------------------------------------------

TEST(Headers, VlanTagFields) {
  mp::VlanTag tag{};
  tag.set(0xfff, 7, true);
  EXPECT_EQ(tag.vid(), 0xfff);
  EXPECT_EQ(tag.pcp(), 7);
  tag.set(1, 0);
  EXPECT_EQ(tag.vid(), 1);
  EXPECT_EQ(tag.pcp(), 0);
}

TEST(Headers, PtpHeaderTypeAndVersion) {
  mp::PtpHeader ptp{};
  ptp.set_message_type(mp::PtpMessageType::kDelayReq);
  ptp.set_version(mp::PtpHeader::kVersion2);
  ptp.set_sequence_id(777);
  EXPECT_EQ(ptp.message_type(), mp::PtpMessageType::kDelayReq);
  EXPECT_EQ(ptp.version(), 2);
  EXPECT_EQ(ptp.sequence_id(), 777);
}

TEST(Headers, WireSizeArithmetic) {
  // 64 B minimum frame occupies 84 B on the wire -> 14.88 Mpps at 10 GbE.
  EXPECT_EQ(mp::wire_size(64), 84u);
  const double mpps = 10e9 / (84 * 8) / 1e6;
  EXPECT_NEAR(mpps, 14.88, 0.01);
}
