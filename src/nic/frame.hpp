// Frames travelling through the simulated hardware.
//
// Simulated frames carry real header bytes (so the PTP byte rule and the
// DuT's forwarding logic can parse them) shared via shared_ptr: generators
// build one template and send it millions of times without copying.
// The FCS is represented by a validity flag rather than literal trailing
// bytes; the CRC32 math itself is exercised by the proto module and its
// tests.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "proto/headers.hpp"

namespace moongen::nic {

/// What the PTP timestamp unit's byte rule (Section 6) finds in a frame: a
/// PTPv2 event message (types 0-3) directly in an Ethernet PTP frame, in a
/// UDP datagram to port 319, or neither.
enum class PtpEvent : std::uint8_t { kNone, kEthernet, kUdp };

/// The byte rule itself, a pure function of the frame bytes (without FCS).
/// Only the chip's minimum size for UDP PTP packets depends on the port, so
/// every site that gives a frame new bytes computes this once and the TX
/// and RX filters read Frame::ptp instead of parsing each frame twice.
[[nodiscard]] PtpEvent ptp_event_of(std::span<const std::uint8_t> bytes);

// Member order is deliberate: flow, fcs_valid and ptp pack into the tail
// padding, keeping sizeof(Frame) at 40 so Port::deliver_frame's per-frame
// closure ([this, frame]) fits InlineFunction's 48-byte inline buffer.
struct Frame {
  /// Frame bytes excluding the 4-byte FCS.
  std::shared_ptr<const std::vector<std::uint8_t>> data;
  /// Generator-assigned sequence number for end-to-end matching.
  std::uint64_t seq = 0;
  /// Departure stamp of the always-on RTT plane (ps; 0 = unstamped). Set
  /// once at first MAC serialization of a valid frame when a plane is
  /// attached — the same payload-stamp idea as the RPC codec, but carried
  /// as frame metadata so the wire bytes (and thus captures, RSS, CRC
  /// behaviour) are untouched. Forwarded copies keep the stamp, so the
  /// receive side measures true end-to-end latency.
  std::uint64_t tx_stamp_ps = 0;
  /// Flow-group label for the RTT plane's per-group histograms (masked by
  /// the plane's group count; 0 is the default group).
  std::uint32_t flow = 0;
  /// False for the deliberately corrupted frames of the CRC-based rate
  /// control (paper Section 8); receivers drop these in hardware.
  bool fcs_valid = true;
  /// ptp_event_of(*data), set wherever the bytes are made.
  PtpEvent ptp = PtpEvent::kNone;

  /// Frame size including FCS (the "packet size" of the paper).
  [[nodiscard]] std::size_t frame_size() const { return data->size() + proto::kFcsSize; }
  /// Bytes occupied on the wire: frame + preamble + SFD + IFG.
  [[nodiscard]] std::size_t wire_bytes() const { return frame_size() + proto::kWireOverhead; }
};

static_assert(sizeof(Frame) == 40,
              "Port::deliver_frame's [this, frame] closure must fit InlineFunction's 48 bytes");

inline Frame make_frame(std::vector<std::uint8_t> bytes, bool fcs_valid = true,
                        std::uint64_t seq = 0) {
  const PtpEvent ptp = ptp_event_of(bytes);
  return Frame{.data = std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes)),
               .seq = seq,
               .fcs_valid = fcs_valid,
               .ptp = ptp};
}

/// Builds an opaque filler frame of `wire_len` bytes on the wire (>= 33),
/// used as an invalid gap frame by the software rate control.
///
/// Gap frames are all-zero payloads that differ only in length, and the CRC
/// rate control emits one or more per valid packet — so the payloads are
/// interned: one immutable shared buffer per distinct size, cached
/// per-thread (generators on different TaskSet threads never contend),
/// each with its PTP class.
inline Frame make_gap_frame(std::size_t wire_len, std::uint64_t seq = 0) {
  const std::size_t data_len =
      wire_len >= proto::kWireOverhead + proto::kFcsSize + 1
          ? wire_len - proto::kWireOverhead - proto::kFcsSize
          : 1;
  struct Interned {
    std::shared_ptr<const std::vector<std::uint8_t>> data;
    PtpEvent ptp = PtpEvent::kNone;
  };
  thread_local std::vector<Interned> cache;
  if (data_len >= cache.size()) cache.resize(data_len + 1);
  auto& slot = cache[data_len];
  if (!slot.data) {
    slot.data = std::make_shared<const std::vector<std::uint8_t>>(data_len, std::uint8_t{0});
    slot.ptp = ptp_event_of(*slot.data);
  }
  return Frame{.data = slot.data, .seq = seq, .fcs_valid = false, .ptp = slot.ptp};
}

}  // namespace moongen::nic
