// Memcache-style RPC codec over UDP.
//
// The paper positions MoonGen as a platform for "arbitrary packet
// processing tasks" beyond frame blasting (Section 3.4); this codec is the
// workload plane built on that claim: a compact get/set protocol whose
// requests carry a sequence id, the key id, and the client's departure
// timestamp in the UDP payload. The server echoes all three, so a response
// alone is enough to compute the request's round-trip latency and to clear
// its in-flight table entry — no per-request state needs to travel through
// any side channel, exactly like the timestamp-in-payload trick real
// memcached load generators use.
//
// Wire layout (after the Ethernet/IPv4/UDP stack of proto::UdpPacketView):
//
//   0        4       5       6          8       16      24            32
//   +--------+-------+-------+----------+-------+-------+-------------+
//   | magic  | opcode| flags | value_len|  seq  |  key  | tx_time_ps  |
//   | "MCR1" | u8    | u8    | u16      |  u64  |  u64  |  u64        |
//   +--------+-------+-------+----------+-------+-------+-------------+
//
// All fields are big-endian like every other header in proto/.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "nic/frame.hpp"
#include "proto/byte_order.hpp"
#include "proto/packet_view.hpp"
#include "sim/time.hpp"

namespace moongen::rpc {

enum class Op : std::uint8_t {
  kGet = 0,
  kSet = 1,
  kGetHit = 2,
  kGetMiss = 3,
  kSetAck = 4,
};

[[nodiscard]] constexpr bool is_response(Op op) { return op >= Op::kGetHit; }
[[nodiscard]] const char* to_string(Op op);

struct [[gnu::packed]] RpcHeader {
  static constexpr std::uint32_t kMagic = 0x4d435231;  // "MCR1"

  std::uint32_t magic = 0;
  std::uint8_t opcode = 0;
  std::uint8_t flags = 0;
  std::uint16_t value_len = 0;
  std::uint64_t seq = 0;
  std::uint64_t key = 0;
  std::uint64_t tx_time_ps = 0;

  [[nodiscard]] bool valid() const { return proto::ntoh32(magic) == kMagic; }
  void set_magic() { magic = proto::hton32(kMagic); }
  [[nodiscard]] Op op() const { return static_cast<Op>(opcode); }
  void set_op(Op op) { opcode = static_cast<std::uint8_t>(op); }
  [[nodiscard]] std::uint16_t get_value_len() const { return proto::ntoh16(value_len); }
  void set_value_len(std::uint16_t len) { value_len = proto::hton16(len); }
  [[nodiscard]] std::uint64_t get_seq() const { return proto::ntoh64(seq); }
  void set_seq(std::uint64_t s) { seq = proto::hton64(s); }
  [[nodiscard]] std::uint64_t get_key() const { return proto::ntoh64(key); }
  void set_key(std::uint64_t k) { key = proto::hton64(k); }
  [[nodiscard]] std::uint64_t get_tx_time_ps() const { return proto::ntoh64(tx_time_ps); }
  void set_tx_time_ps(std::uint64_t t) { tx_time_ps = proto::hton64(t); }
};
static_assert(sizeof(RpcHeader) == 32);

/// View of an Ethernet/IPv4/UDP/RPC packet.
class RpcPacketView : public proto::UdpPacketView {
 public:
  using UdpPacketView::UdpPacketView;

  static constexpr std::size_t kHeaderStack =
      proto::UdpPacketView::kHeaderStack + sizeof(RpcHeader);

  [[nodiscard]] RpcHeader& rpc() const {
    return *reinterpret_cast<RpcHeader*>(frame_.data() + proto::UdpPacketView::kHeaderStack);
  }
  [[nodiscard]] std::span<std::uint8_t> value() const { return frame_.subspan(kHeaderStack); }
};

/// Default memcache UDP port.
inline constexpr std::uint16_t kRpcUdpPort = 11211;

struct RpcTemplateOptions {
  /// Buffer length without FCS; must fit the header stack.
  std::size_t frame_size = 96;
  std::uint16_t udp_src = 9000;
  std::uint16_t udp_dst = kRpcUdpPort;
  Op opcode = Op::kGet;
};

/// Builds a frame template with the full header stack filled and the RPC
/// per-request fields zeroed. Throws std::invalid_argument if `frame_size`
/// cannot hold the header stack.
nic::Frame make_rpc_frame(const RpcTemplateOptions& opts);

/// Per-request fields pulled out of a frame by decode().
struct Decoded {
  Op op = Op::kGet;
  std::uint64_t seq = 0;
  std::uint64_t key = 0;
  sim::SimTime tx_time_ps = 0;
  std::uint16_t value_len = 0;
};

/// Rewrites the per-request RPC fields of a frame built from
/// make_rpc_frame's template. The header stack is left untouched, so this
/// is the entire per-request encoding cost: five stores into a
/// preallocated buffer.
void write_rpc_fields(std::span<std::uint8_t> frame_bytes, Op op, std::uint64_t seq,
                      std::uint64_t key, sim::SimTime tx_time_ps, std::uint16_t value_len = 0);

/// Parses `frame_bytes` as Ethernet/IPv4/UDP/RPC. Returns nullopt for
/// anything that is not a well-formed RPC packet (wrong protocol stack,
/// truncated payload, bad magic) — receivers must tolerate foreign or
/// corrupted traffic on the wire.
std::optional<Decoded> decode(std::span<const std::uint8_t> frame_bytes);

/// Round-robin pool of preallocated mutable frame buffers sharing one
/// template. acquire() hands out the next buffer and a Frame aliasing it;
/// the caller rewrites the per-request fields and posts the Frame. A
/// buffer is reused after `count` further acquisitions, so `count` must
/// exceed the maximum number of frames the NIC can hold in flight
/// (descriptor ring + FIFO + wire) — then the steady state allocates
/// nothing per request. The Frame carries the template's PTP class:
/// write_rpc_fields changes only bytes behind the RPC magic, which the
/// PTP byte rule never reads.
class FramePool {
 public:
  FramePool(const nic::Frame& tmpl, std::size_t count);

  /// Mutable bytes of the next buffer plus the Frame sharing them.
  std::pair<std::span<std::uint8_t>, nic::Frame> acquire();

  [[nodiscard]] std::size_t size() const { return buffers_.size(); }

 private:
  std::vector<std::shared_ptr<std::vector<std::uint8_t>>> buffers_;
  nic::PtpEvent ptp_;
  std::size_t next_ = 0;
};

}  // namespace moongen::rpc
