#include "membuf/buf_array.hpp"

#include "proto/checksum.hpp"
#include "proto/packet_view.hpp"

namespace moongen::membuf {

std::size_t BufArray::alloc(std::size_t frame_length) {
  size_ = pool_->alloc_batch({bufs_.data(), bufs_.size()}, frame_length);
  last_shortfall_ = bufs_.size() - size_;
  return size_;
}

std::size_t BufArray::alloc(std::size_t frame_length, std::size_t max_count) {
  const std::size_t want = std::min(max_count, bufs_.size());
  size_ = pool_->alloc_batch({bufs_.data(), want}, frame_length);
  last_shortfall_ = want - size_;
  return size_;
}

void BufArray::free_all() {
  if (size_ == 0) return;
  // Buffers may come from different pools on the RX path; group by pool.
  for (std::size_t i = 0; i < size_; ++i) {
    PktBuf* buf = bufs_[i];
    if (buf != nullptr) buf->pool()->free(buf);
    bufs_[i] = nullptr;
  }
  size_ = 0;
}

void BufArray::offload_ip_checksums() {
  for (std::size_t i = 0; i < size_; ++i) bufs_[i]->flags().ip_checksum = true;
}

namespace {

/// Writes the pseudo-header sum into the L4 checksum field so the NIC can
/// finish the checksum over the payload (the hardware contract of the
/// Intel X540 [13]).
template <typename Header>
void prepare_l4_offload(PktBuf& buf, std::size_t checksum_offset) {
  proto::Ipv4PacketView view{buf.bytes()};
  auto& ip = view.ip();
  const auto l4 = view.l4_bytes();
  const std::uint32_t pseudo =
      proto::ipv4_pseudo_header_sum(ip, static_cast<std::uint16_t>(l4.size()));
  // Fold without complement: the NIC continues the sum from here.
  std::uint32_t folded = pseudo;
  while (folded >> 16) folded = (folded & 0xffff) + (folded >> 16);
  auto* csum = l4.data() + checksum_offset;
  csum[0] = static_cast<std::uint8_t>(folded >> 8);
  csum[1] = static_cast<std::uint8_t>(folded & 0xff);
}

}  // namespace

void BufArray::offload_udp_checksums() {
  for (std::size_t i = 0; i < size_; ++i) {
    prepare_l4_offload<proto::UdpHeader>(*bufs_[i], offsetof(proto::UdpHeader, checksum_be));
    bufs_[i]->flags().udp_checksum = true;
    bufs_[i]->flags().ip_checksum = true;
  }
}

void BufArray::offload_tcp_checksums() {
  for (std::size_t i = 0; i < size_; ++i) {
    prepare_l4_offload<proto::TcpHeader>(*bufs_[i], offsetof(proto::TcpHeader, checksum_be));
    bufs_[i]->flags().tcp_checksum = true;
    bufs_[i]->flags().ip_checksum = true;
  }
}

}  // namespace moongen::membuf
