#include "rpc/codec.hpp"

#include <cstring>
#include <stdexcept>

namespace moongen::rpc {

const char* to_string(Op op) {
  switch (op) {
    case Op::kGet: return "get";
    case Op::kSet: return "set";
    case Op::kGetHit: return "get_hit";
    case Op::kGetMiss: return "get_miss";
    case Op::kSetAck: return "set_ack";
  }
  return "?";
}

nic::Frame make_rpc_frame(const RpcTemplateOptions& opts) {
  if (opts.frame_size < RpcPacketView::kHeaderStack)
    throw std::invalid_argument("make_rpc_frame: frame_size below RPC header stack");
  std::vector<std::uint8_t> bytes(opts.frame_size, 0);
  RpcPacketView view{{bytes.data(), bytes.size()}};
  proto::UdpFillOptions fill;
  fill.packet_length = opts.frame_size;
  fill.eth_src = proto::MacAddress::from_uint64(0x020000000001ull);
  fill.eth_dst = proto::MacAddress::from_uint64(0x020000000002ull);
  fill.udp_src = opts.udp_src;
  fill.udp_dst = opts.udp_dst;
  view.fill(fill);
  view.rpc().set_magic();
  view.rpc().set_op(opts.opcode);
  return nic::make_frame(std::move(bytes));
}

void write_rpc_fields(std::span<std::uint8_t> frame_bytes, Op op, std::uint64_t seq,
                      std::uint64_t key, sim::SimTime tx_time_ps, std::uint16_t value_len) {
  RpcPacketView view{frame_bytes};
  RpcHeader& h = view.rpc();
  h.set_op(op);
  h.set_seq(seq);
  h.set_key(key);
  h.set_tx_time_ps(tx_time_ps);
  h.set_value_len(value_len);
}

std::optional<Decoded> decode(std::span<const std::uint8_t> frame_bytes) {
  const auto pc = proto::classify(frame_bytes);
  if (!pc.has_value() || !pc->is_udp || pc->l7_offset == 0) return std::nullopt;
  if (frame_bytes.size() < pc->l7_offset + sizeof(RpcHeader)) return std::nullopt;
  // classify() already bounds-checked the stack; the RPC header sits at the
  // L7 offset (VLAN tags and IP options shift it, unlike kHeaderStack).
  RpcHeader h;
  std::memcpy(&h, frame_bytes.data() + pc->l7_offset, sizeof(h));
  if (!h.valid()) return std::nullopt;
  if (h.opcode > static_cast<std::uint8_t>(Op::kSetAck)) return std::nullopt;
  Decoded out;
  out.op = h.op();
  out.seq = h.get_seq();
  out.key = h.get_key();
  out.tx_time_ps = h.get_tx_time_ps();
  out.value_len = h.get_value_len();
  return out;
}

FramePool::FramePool(const nic::Frame& tmpl, std::size_t count) : ptp_(tmpl.ptp) {
  if (count == 0) throw std::invalid_argument("FramePool: empty pool");
  buffers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    buffers_.push_back(std::make_shared<std::vector<std::uint8_t>>(*tmpl.data));
}

std::pair<std::span<std::uint8_t>, nic::Frame> FramePool::acquire() {
  auto& buf = buffers_[next_];
  next_ = next_ + 1 == buffers_.size() ? 0 : next_ + 1;
  // The Frame aliases the buffer through a const pointer; the pool keeps
  // the mutable handle, so the next acquisition of this slot can rewrite
  // the per-request fields in place without reallocating.
  return {std::span<std::uint8_t>{buf->data(), buf->size()},
          nic::Frame{.data = std::shared_ptr<const std::vector<std::uint8_t>>(buf), .ptp = ptp_}};
}

}  // namespace moongen::rpc
