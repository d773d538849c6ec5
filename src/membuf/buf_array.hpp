// Batch wrapper over packet buffers — MoonGen's `bufArray` (Listing 2).
//
// High packet rates require batch processing (paper Sections 4.2, 7.1):
// buffers are allocated, modified, offloaded and sent in batches of
// typically 32-128 packets. BufArray also implements the checksum-offload
// preparation (`offloadUdpChecksums` etc.): the pseudo-header sum is
// computed in software and the flag set so the NIC model finishes the sum,
// exactly as MoonGen must do on the X540 (Section 5.6.1).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "membuf/mempool.hpp"
#include "membuf/pktbuf.hpp"

namespace moongen::membuf {

class BufArray {
 public:
  /// Default batch size; the sweet spot found for DPDK-style IO.
  static constexpr std::size_t kDefaultBatch = 64;

  explicit BufArray(Mempool& pool, std::size_t batch_size = kDefaultBatch)
      : pool_(&pool), bufs_(batch_size, nullptr), size_(0) {}

  /// Creates a free-standing array for RX use (no owning pool needed before
  /// the first `recv`); buffers received into it belong to the RX queue's
  /// pool.
  explicit BufArray(std::size_t batch_size = kDefaultBatch)
      : pool_(nullptr), bufs_(batch_size, nullptr), size_(0) {}

  /// Allocates a full batch of buffers of `frame_length` bytes from the
  /// pool. Returns the number allocated (== capacity unless exhausted).
  std::size_t alloc(std::size_t frame_length);

  /// Allocates at most `max_count` buffers (for the tail of a bounded run).
  std::size_t alloc(std::size_t frame_length, std::size_t max_count);

  /// Buffers the most recent alloc call asked for but did not get.
  [[nodiscard]] std::size_t last_shortfall() const { return last_shortfall_; }

  /// Returns all held buffers to their pool and clears the array.
  void free_all();

  /// Enables IPv4 header checksum offloading on all held buffers.
  void offload_ip_checksums();
  /// Enables UDP checksum offloading: computes the IPv4 pseudo-header sum
  /// in software, stores it in the packet's checksum field, sets the flag.
  void offload_udp_checksums();
  /// Enables TCP checksum offloading (same split as UDP).
  void offload_tcp_checksums();

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return bufs_.size(); }
  void set_size(std::size_t n) { size_ = n; }

  PktBuf*& operator[](std::size_t i) { return bufs_[i]; }
  PktBuf* const& operator[](std::size_t i) const { return bufs_[i]; }

  [[nodiscard]] std::span<PktBuf*> packets() { return {bufs_.data(), size_}; }
  [[nodiscard]] std::span<PktBuf* const> packets() const { return {bufs_.data(), size_}; }
  [[nodiscard]] std::span<PktBuf*> storage() { return {bufs_.data(), bufs_.size()}; }

  [[nodiscard]] auto begin() { return bufs_.begin(); }
  [[nodiscard]] auto end() { return bufs_.begin() + static_cast<std::ptrdiff_t>(size_); }

  [[nodiscard]] Mempool* pool() const { return pool_; }

 private:
  Mempool* pool_;
  std::vector<PktBuf*> bufs_;
  std::size_t size_;
  std::size_t last_shortfall_ = 0;
};

}  // namespace moongen::membuf
