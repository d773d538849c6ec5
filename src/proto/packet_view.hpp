// Typed packet views: zero-copy, header-stacked accessors over a raw frame.
//
// This is the C++ equivalent of MoonGen's `buf:getUdpPacket()` /
// `pkt:fill{...}` Lua idiom (paper Listing 2): a view interprets the bytes
// of a packet buffer as a stack of headers and `fill()` writes protocol
// defaults plus caller-selected fields in one call. Views never own memory
// and perform no bounds checks in release builds beyond construction —
// matching the paper's deliberate performance/safety tradeoff (Section 5).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "proto/headers.hpp"

namespace moongen::proto {

/// Field bundle for `UdpPacketView::fill`. All members are optional in
/// spirit: default values produce a valid packet; override what you need,
/// mirroring Lua's table-based fill.
struct UdpFillOptions {
  std::size_t packet_length = 60;  // buffer length without FCS
  MacAddress eth_src{};
  MacAddress eth_dst{};
  IPv4Address ip_src = IPv4Address{10, 0, 0, 1};
  IPv4Address ip_dst = IPv4Address{10, 1, 0, 1};
  std::uint8_t ip_ttl = 64;
  std::uint16_t udp_src = 1024;
  std::uint16_t udp_dst = 1024;
};

struct TcpFillOptions {
  std::size_t packet_length = 60;
  MacAddress eth_src{};
  MacAddress eth_dst{};
  IPv4Address ip_src = IPv4Address{10, 0, 0, 1};
  IPv4Address ip_dst = IPv4Address{10, 1, 0, 1};
  std::uint16_t tcp_src = 1024;
  std::uint16_t tcp_dst = 1024;
  std::uint32_t tcp_seq = 0;
  std::uint8_t tcp_flags = TcpHeader::kAck;
};

/// View of an Ethernet frame. Construction requires at least the Ethernet
/// header to be present.
class EthPacketView {
 public:
  explicit EthPacketView(std::span<std::uint8_t> frame) : frame_(frame) {}

  [[nodiscard]] EthernetHeader& eth() const {
    return *reinterpret_cast<EthernetHeader*>(frame_.data());
  }
  [[nodiscard]] std::span<std::uint8_t> payload() const {
    return frame_.subspan(sizeof(EthernetHeader));
  }
  [[nodiscard]] std::span<std::uint8_t> bytes() const { return frame_; }
  [[nodiscard]] std::size_t size() const { return frame_.size(); }

 protected:
  std::span<std::uint8_t> frame_;
};

/// View of an Ethernet/IPv4 packet.
class Ipv4PacketView : public EthPacketView {
 public:
  using EthPacketView::EthPacketView;

  [[nodiscard]] Ipv4Header& ip() const {
    return *reinterpret_cast<Ipv4Header*>(frame_.data() + sizeof(EthernetHeader));
  }
  [[nodiscard]] std::span<std::uint8_t> l4_bytes() const {
    return frame_.subspan(sizeof(EthernetHeader) + ip().header_length());
  }
};

/// View of an Ethernet/IPv4/UDP packet.
class UdpPacketView : public Ipv4PacketView {
 public:
  using Ipv4PacketView::Ipv4PacketView;

  static constexpr std::size_t kHeaderStack =
      sizeof(EthernetHeader) + sizeof(Ipv4Header) + sizeof(UdpHeader);

  [[nodiscard]] UdpHeader& udp() const {
    return *reinterpret_cast<UdpHeader*>(frame_.data() + sizeof(EthernetHeader) +
                                         sizeof(Ipv4Header));
  }
  [[nodiscard]] std::span<std::uint8_t> udp_payload() const {
    return frame_.subspan(kHeaderStack);
  }

  /// Writes defaults + requested fields for the whole header stack and
  /// sets all length fields consistently for `opts.packet_length`.
  void fill(const UdpFillOptions& opts) const;
};

/// View of an Ethernet/IPv4/TCP packet.
class TcpPacketView : public Ipv4PacketView {
 public:
  using Ipv4PacketView::Ipv4PacketView;

  static constexpr std::size_t kHeaderStack =
      sizeof(EthernetHeader) + sizeof(Ipv4Header) + sizeof(TcpHeader);

  [[nodiscard]] TcpHeader& tcp() const {
    return *reinterpret_cast<TcpHeader*>(frame_.data() + sizeof(EthernetHeader) +
                                         sizeof(Ipv4Header));
  }
  void fill(const TcpFillOptions& opts) const;
};

/// View of an Ethernet/IPv6/UDP packet.
class Udp6PacketView : public EthPacketView {
 public:
  using EthPacketView::EthPacketView;

  static constexpr std::size_t kHeaderStack =
      sizeof(EthernetHeader) + sizeof(Ipv6Header) + sizeof(UdpHeader);

  [[nodiscard]] Ipv6Header& ip6() const {
    return *reinterpret_cast<Ipv6Header*>(frame_.data() + sizeof(EthernetHeader));
  }
  [[nodiscard]] UdpHeader& udp() const {
    return *reinterpret_cast<UdpHeader*>(frame_.data() + sizeof(EthernetHeader) +
                                         sizeof(Ipv6Header));
  }
  void fill(std::size_t packet_length, MacAddress eth_src, MacAddress eth_dst,
            const IPv6Address& src, const IPv6Address& dst, std::uint16_t udp_src,
            std::uint16_t udp_dst) const;
};

/// View of an Ethernet/IPv4/ESP packet (IPsec tunnel/transport framing;
/// the generator crafts load, not cryptography — like the paper's IPsec
/// example scripts).
class EspPacketView : public Ipv4PacketView {
 public:
  using Ipv4PacketView::Ipv4PacketView;

  static constexpr std::size_t kHeaderStack =
      sizeof(EthernetHeader) + sizeof(Ipv4Header) + sizeof(EspHeader);

  [[nodiscard]] EspHeader& esp() const {
    return *reinterpret_cast<EspHeader*>(frame_.data() + sizeof(EthernetHeader) +
                                         sizeof(Ipv4Header));
  }

  /// Fills Ethernet/IPv4/ESP headers; `spi` and `sequence` per SA state.
  void fill(std::size_t packet_length, MacAddress eth_src, MacAddress eth_dst,
            IPv4Address ip_src, IPv4Address ip_dst, std::uint32_t spi,
            std::uint32_t sequence) const;
};

// ---------------------------------------------------------------------------
// RX-side classification
// ---------------------------------------------------------------------------

/// Summary of the header stack found in a received frame. Used by the NIC
/// timestamp units (PTP detection) and example scripts.
struct PacketClass {
  EtherType ether_type{};
  bool has_vlan = false;  // at least one 802.1Q/802.1ad tag present
  std::uint8_t vlan_tags = 0;  // 0, 1 or 2 parsed tags
  std::uint16_t outer_vid = 0;  // first tag on the wire (S-tag if QinQ)
  std::uint8_t outer_pcp = 0;
  std::uint16_t inner_vid = 0;  // second tag (C-tag); valid iff vlan_tags == 2
  std::uint8_t inner_pcp = 0;
  std::optional<IpProtocol> l4_protocol;  // set for IPv4/IPv6
  std::size_t l3_offset = 0;
  std::size_t l4_offset = 0;
  std::size_t l7_offset = 0;  // payload after UDP/TCP, if any
  bool is_ptp_ethernet = false;              // EtherType 0x88F7
  bool is_udp = false;
  std::uint16_t udp_dst_port = 0;
};

/// Parses the outer headers of `frame` (without FCS). Returns nullopt for
/// truncated or non-Ethernet input.
std::optional<PacketClass> classify(std::span<const std::uint8_t> frame);

}  // namespace moongen::proto
