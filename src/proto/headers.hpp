// Packed wire-format protocol headers.
//
// All multi-byte fields are stored in network byte order; use the accessor
// methods (which convert via byte_order.hpp) rather than touching raw fields.
// The structs intentionally have no invariants beyond their layout, so they
// are plain aggregates (Core Guidelines C.2).
#pragma once

#include <cstdint>

#include "proto/byte_order.hpp"
#include "proto/ip_address.hpp"
#include "proto/mac_address.hpp"

namespace moongen::proto {

// ---------------------------------------------------------------------------
// Ethernet
// ---------------------------------------------------------------------------

enum class EtherType : std::uint16_t {
  kIPv4 = 0x0800,
  kArp = 0x0806,
  kVlan = 0x8100,
  kQinQ = 0x88A8,  // 802.1ad service tag (S-tag) of a stacked VLAN pair
  kIPv6 = 0x86DD,
  kPtp = 0x88F7,  // IEEE 1588 PTP directly over Ethernet
};

struct [[gnu::packed]] EthernetHeader {
  MacAddress dst;
  MacAddress src;
  std::uint16_t ether_type_be;

  [[nodiscard]] EtherType ether_type() const {
    return static_cast<EtherType>(ntoh16(ether_type_be));
  }
  void set_ether_type(EtherType t) { ether_type_be = hton16(static_cast<std::uint16_t>(t)); }
};
static_assert(sizeof(EthernetHeader) == 14);

struct [[gnu::packed]] VlanTag {
  std::uint16_t tci_be;         // PCP(3) | DEI(1) | VID(12)
  std::uint16_t ether_type_be;  // encapsulated EtherType

  [[nodiscard]] std::uint16_t vid() const { return ntoh16(tci_be) & 0x0fff; }
  [[nodiscard]] std::uint8_t pcp() const { return static_cast<std::uint8_t>(ntoh16(tci_be) >> 13); }
  void set(std::uint16_t vid, std::uint8_t pcp, bool dei = false) {
    tci_be = hton16(static_cast<std::uint16_t>((pcp & 0x7) << 13 | (dei ? 1 << 12 : 0) |
                                               (vid & 0x0fff)));
  }
};
static_assert(sizeof(VlanTag) == 4);

// ---------------------------------------------------------------------------
// IPv4 / IPv6
// ---------------------------------------------------------------------------

enum class IpProtocol : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
  kEsp = 50,
  kAh = 51,
  kIcmpV6 = 58,
};

struct [[gnu::packed]] Ipv4Header {
  std::uint8_t version_ihl;  // 0x45 for a 20-byte header
  std::uint8_t dscp_ecn;
  std::uint16_t total_length_be;
  std::uint16_t identification_be;
  std::uint16_t flags_fragment_be;
  std::uint8_t ttl;
  std::uint8_t protocol;
  std::uint16_t header_checksum_be;
  std::uint32_t src_be;
  std::uint32_t dst_be;

  [[nodiscard]] std::uint8_t version() const { return version_ihl >> 4; }
  [[nodiscard]] std::size_t header_length() const {
    return static_cast<std::size_t>(version_ihl & 0x0f) * 4;
  }
  [[nodiscard]] std::uint16_t total_length() const { return ntoh16(total_length_be); }
  void set_total_length(std::uint16_t len) { total_length_be = hton16(len); }
  [[nodiscard]] IpProtocol ip_protocol() const { return static_cast<IpProtocol>(protocol); }

  [[nodiscard]] IPv4Address src() const { return IPv4Address::from_network(src_be); }
  [[nodiscard]] IPv4Address dst() const { return IPv4Address::from_network(dst_be); }
  void set_src(IPv4Address a) { src_be = a.to_network(); }
  void set_dst(IPv4Address a) { dst_be = a.to_network(); }

  /// Sets version=4, IHL=5, TTL=64 and zeroes checksum/fragment fields.
  void set_defaults() {
    version_ihl = 0x45;
    dscp_ecn = 0;
    identification_be = 0;
    flags_fragment_be = hton16(0x4000);  // don't fragment
    ttl = 64;
    header_checksum_be = 0;
  }
};
static_assert(sizeof(Ipv4Header) == 20);

struct [[gnu::packed]] Ipv6Header {
  std::uint32_t vtc_flow_be;  // version(4) | traffic class(8) | flow label(20)
  std::uint16_t payload_length_be;
  std::uint8_t next_header;
  std::uint8_t hop_limit;
  IPv6Address src;
  IPv6Address dst;

  [[nodiscard]] std::uint8_t version() const { return static_cast<std::uint8_t>(ntoh32(vtc_flow_be) >> 28); }
  [[nodiscard]] std::uint16_t payload_length() const { return ntoh16(payload_length_be); }
  void set_payload_length(std::uint16_t len) { payload_length_be = hton16(len); }
  void set_defaults() {
    vtc_flow_be = hton32(6u << 28);
    hop_limit = 64;
  }
};
static_assert(sizeof(Ipv6Header) == 40);

// ---------------------------------------------------------------------------
// UDP / TCP
// ---------------------------------------------------------------------------

struct [[gnu::packed]] UdpHeader {
  std::uint16_t src_port_be;
  std::uint16_t dst_port_be;
  std::uint16_t length_be;
  std::uint16_t checksum_be;

  [[nodiscard]] std::uint16_t src_port() const { return ntoh16(src_port_be); }
  [[nodiscard]] std::uint16_t dst_port() const { return ntoh16(dst_port_be); }
  [[nodiscard]] std::uint16_t length() const { return ntoh16(length_be); }
  void set_src_port(std::uint16_t p) { src_port_be = hton16(p); }
  void set_dst_port(std::uint16_t p) { dst_port_be = hton16(p); }
  void set_length(std::uint16_t l) { length_be = hton16(l); }
};
static_assert(sizeof(UdpHeader) == 8);

struct [[gnu::packed]] TcpHeader {
  std::uint16_t src_port_be;
  std::uint16_t dst_port_be;
  std::uint32_t seq_be;
  std::uint32_t ack_be;
  std::uint8_t data_offset_reserved;  // offset in 32-bit words << 4
  std::uint8_t flags;
  std::uint16_t window_be;
  std::uint16_t checksum_be;
  std::uint16_t urgent_be;

  static constexpr std::uint8_t kFin = 0x01;
  static constexpr std::uint8_t kSyn = 0x02;
  static constexpr std::uint8_t kRst = 0x04;
  static constexpr std::uint8_t kPsh = 0x08;
  static constexpr std::uint8_t kAck = 0x10;

  [[nodiscard]] std::uint16_t src_port() const { return ntoh16(src_port_be); }
  [[nodiscard]] std::uint16_t dst_port() const { return ntoh16(dst_port_be); }
  [[nodiscard]] std::size_t header_length() const {
    return static_cast<std::size_t>(data_offset_reserved >> 4) * 4;
  }
  void set_src_port(std::uint16_t p) { src_port_be = hton16(p); }
  void set_dst_port(std::uint16_t p) { dst_port_be = hton16(p); }
  void set_seq(std::uint32_t s) { seq_be = hton32(s); }
  [[nodiscard]] std::uint32_t seq() const { return ntoh32(seq_be); }
  void set_defaults() {
    data_offset_reserved = 5 << 4;
    window_be = hton16(0xffff);
    flags = kAck;
  }
};
static_assert(sizeof(TcpHeader) == 20);

// ---------------------------------------------------------------------------
// IPsec (header layouts only; no cryptography)
// ---------------------------------------------------------------------------

struct [[gnu::packed]] EspHeader {
  std::uint32_t spi_be;
  std::uint32_t sequence_be;

  [[nodiscard]] std::uint32_t spi() const { return ntoh32(spi_be); }
  void set_spi(std::uint32_t s) { spi_be = hton32(s); }
  void set_sequence(std::uint32_t s) { sequence_be = hton32(s); }
};
static_assert(sizeof(EspHeader) == 8);

// ---------------------------------------------------------------------------
// IEEE 1588 PTP
// ---------------------------------------------------------------------------

/// PTP message types (first nibble of the first payload byte).
enum class PtpMessageType : std::uint8_t {
  kSync = 0x0,
  kDelayReq = 0x1,
  kPdelayReq = 0x2,
  kPdelayResp = 0x3,
  kFollowUp = 0x8,
  kDelayResp = 0x9,
  kAnnounce = 0xb,
};

/// Minimal PTPv2 header. The NIC timestamp units only inspect the first two
/// bytes (message type and version), which the paper exploits to timestamp
/// almost arbitrary packets (Section 6).
struct [[gnu::packed]] PtpHeader {
  std::uint8_t transport_and_type;  // transportSpecific(4) | messageType(4)
  std::uint8_t reserved_and_version;  // reserved(4) | versionPTP(4)
  std::uint16_t message_length_be;
  std::uint8_t domain_number;
  std::uint8_t reserved1;
  std::uint16_t flags_be;
  std::uint64_t correction_be;
  std::uint32_t reserved2;
  std::uint8_t source_port_identity[10];
  std::uint16_t sequence_id_be;
  std::uint8_t control_field;
  std::uint8_t log_message_interval;

  static constexpr std::uint8_t kVersion2 = 2;
  /// The well-known PTP-over-UDP event port.
  static constexpr std::uint16_t kUdpEventPort = 319;

  [[nodiscard]] PtpMessageType message_type() const {
    return static_cast<PtpMessageType>(transport_and_type & 0x0f);
  }
  [[nodiscard]] std::uint8_t version() const { return reserved_and_version & 0x0f; }
  [[nodiscard]] std::uint16_t sequence_id() const { return ntoh16(sequence_id_be); }
  void set_message_type(PtpMessageType t) {
    transport_and_type = static_cast<std::uint8_t>((transport_and_type & 0xf0) |
                                                   (static_cast<std::uint8_t>(t) & 0x0f));
  }
  void set_version(std::uint8_t v) {
    reserved_and_version = static_cast<std::uint8_t>((reserved_and_version & 0xf0) | (v & 0x0f));
  }
  void set_sequence_id(std::uint16_t s) { sequence_id_be = hton16(s); }
};
static_assert(sizeof(PtpHeader) == 34);

// ---------------------------------------------------------------------------
// Frame-size constants (Ethernet)
// ---------------------------------------------------------------------------

/// Minimum Ethernet frame (excluding preamble/SFD/IFG, including FCS).
inline constexpr std::size_t kMinFrameSize = 64;
/// Standard maximum (non-jumbo) frame size including FCS.
inline constexpr std::size_t kMaxFrameSize = 1518;
/// Preamble (7) + SFD (1) + inter-frame gap (12): per-frame wire overhead.
inline constexpr std::size_t kWireOverhead = 20;
/// Frame check sequence length.
inline constexpr std::size_t kFcsSize = 4;

/// Bytes occupied on the wire by a frame of `frame_size` bytes
/// (frame_size counts the FCS, as in the paper's rate arithmetic).
constexpr std::size_t wire_size(std::size_t frame_size) { return frame_size + kWireOverhead; }

}  // namespace moongen::proto
