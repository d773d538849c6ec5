// Packet buffer: the DPDK-mbuf equivalent.
//
// A PktBuf is a fixed-capacity, cache-line-aligned buffer owned by a
// Mempool. Buffers handed to a transmit queue must not be touched until the
// queue recycles them (paper Section 4.2): transmission is asynchronous and
// the "NIC" may fetch the bytes later. The Mempool/TxQueue pair enforces the
// same recycle-on-later-send contract as DPDK.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace moongen::membuf {

class Mempool;

/// Checksum-offload and rate-control metadata carried per buffer, the
/// equivalent of DPDK's ol_flags.
struct OffloadFlags {
  bool ip_checksum : 1 = false;   ///< NIC fills the IPv4 header checksum.
  bool udp_checksum : 1 = false;  ///< NIC finishes the UDP checksum (pseudo-header precomputed).
  bool tcp_checksum : 1 = false;  ///< NIC finishes the TCP checksum.
  /// Transmit the frame with a deliberately corrupted FCS. Used by the
  /// CRC-based software rate control (paper Section 8): receivers drop such
  /// frames in hardware before they reach any receive queue.
  bool invalid_crc : 1 = false;
};

class PktBuf {
 public:
  /// Data room per buffer. 2 KiB fits any non-jumbo frame, as in DPDK's
  /// default mbuf size.
  static constexpr std::size_t kDataRoom = 2048;

  PktBuf() = default;
  PktBuf(const PktBuf&) = delete;
  PktBuf& operator=(const PktBuf&) = delete;

  [[nodiscard]] std::uint8_t* data() { return data_; }
  [[nodiscard]] const std::uint8_t* data() const { return data_; }

  /// Frame bytes excluding the FCS (the NIC appends/checks the FCS).
  [[nodiscard]] std::size_t length() const { return length_; }
  void set_length(std::size_t len) { length_ = static_cast<std::uint32_t>(len); }

  [[nodiscard]] std::span<std::uint8_t> bytes() { return {data_, length_}; }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const { return {data_, length_}; }

  OffloadFlags& flags() { return flags_; }
  [[nodiscard]] const OffloadFlags& flags() const { return flags_; }

  [[nodiscard]] Mempool* pool() const { return pool_; }

 private:
  friend class Mempool;

  alignas(64) std::uint8_t data_[kDataRoom];
  std::uint32_t length_ = 0;
  OffloadFlags flags_{};
  Mempool* pool_ = nullptr;
};

}  // namespace moongen::membuf
