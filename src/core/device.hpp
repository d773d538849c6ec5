// Fast-path device API: the C++ face of MoonGen's Lua `device` module.
//
// This is the API the examples and the cycle-accurate microbenchmarks use
// (paper Listings 1-3). A fast-path Device owns transmit/receive queues
// with DPDK semantics:
//  * `send` is asynchronous: it places descriptors into a ring; the buffer
//    must not be touched afterwards and is recycled into its mempool only
//    when the ring position is reused (Section 4.2);
//  * queues can be wired device-to-device ("loopback cable") through
//    lock-free rings, so receive-side scripts (Listing 3) run end to end;
//  * optional wall-clock rate limiting stands in for the NIC's hardware
//    rate control in live examples (the *precision* of rate control is
//    evaluated in the virtual-time simulation, not here).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "membuf/buf_array.hpp"
#include "membuf/mempool.hpp"
#include "membuf/ring.hpp"
#include "proto/mac_address.hpp"

namespace moongen::core {

class Device;

/// Fast-path transmit queue backed by a descriptor ring.
class TxQueue {
 public:
  /// Enqueues all packets of `bufs` for transmission; returns the number
  /// sent. Buffers are recycled automatically as the ring wraps. A batch
  /// whose allocation came back short (bufs.last_shortfall() > 0) is
  /// counted in short_batches() so CBR-skewing partial bursts are visible.
  std::uint16_t send(membuf::BufArray& bufs);

  /// Sets a wall-clock rate limit in Mbit/s wire rate (0 = unlimited).
  /// Mirrors `queue:setRate(rate)` from Listing 1.
  void set_rate_mbit(double mbit) { rate_mbit_ = mbit; }

  /// Drops all in-flight descriptor references WITHOUT recycling them.
  /// Must be called before destroying a mempool whose buffers may still sit
  /// in this queue's ring (e.g. between benchmark configurations); the pool
  /// owns the buffer storage, so nothing leaks.
  void reset();

  [[nodiscard]] std::uint64_t sent_packets() const { return sent_packets_; }
  [[nodiscard]] std::uint64_t sent_bytes() const { return sent_bytes_; }
  /// Batches sent with fewer buffers than requested from the mempool.
  [[nodiscard]] std::uint64_t short_batches() const { return short_batches_; }

  ~TxQueue();

 private:
  friend class Device;
  /// Default ring of 256 descriptors: slots are write-only modeling state
  /// (4 KiB stays L1-resident under load); recycling does not depend on
  /// ring depth (see prev_batch_).
  explicit TxQueue(Device& dev, std::size_t ring_size = 256);

  /// 16-byte TX descriptor, as written per packet by a real driver; the
  /// descriptor-write cost is part of the per-packet IO baseline the paper
  /// measures in Table 1. Descriptors are modeling artifacts only — buffers
  /// are never recycled *through* them (see prev_batch_ below), so stale
  /// `buf` pointers in reused slots are never dereferenced.
  struct Descriptor {
    membuf::PktBuf* buf = nullptr;
    std::uint32_t length = 0;
    std::uint32_t flags = 0;
  };

  void pace(std::size_t wire_bytes);

  Device& dev_;
  std::vector<Descriptor> ring_;  // descriptor ring (modeling artifact)
  std::size_t head_ = 0;

  // The previous send's buffers (parallel arrays of buffer and owning
  // pool). They are recycled at the start of the *next* send — DPDK's
  // tx_rs_thresh cleanup collapsed to a one-batch in-flight window. This
  // keeps the asynchronous-send contract (buffers are never reclaimed
  // within the send that enqueued them) while keeping the recirculating
  // buffer set small enough to live in the L1 cache; parking buffers for a
  // whole ring revolution made every alloc/fill touch cache-cold lines and
  // dominated the per-packet cost.
  std::vector<membuf::PktBuf*> prev_batch_;
  std::vector<membuf::Mempool*> prev_pools_;

  double rate_mbit_ = 0.0;
  std::uint64_t pace_next_ns_ = 0;

  std::uint64_t sent_packets_ = 0;
  std::uint64_t sent_bytes_ = 0;
  std::uint64_t short_batches_ = 0;
};

/// Fast-path receive queue fed by a loopback wire from a peer device.
class RxQueue {
 public:
  /// Receives up to `bufs.capacity()` packets; returns the count and sets
  /// `bufs`' size. Mirrors `queue:recv(bufs)` from Listing 3.
  std::uint16_t recv(membuf::BufArray& bufs);

  [[nodiscard]] std::uint64_t received() const { return rx_packets_; }
  [[nodiscard]] std::uint64_t ring_drops() const { return ring_drops_; }

 private:
  friend class Device;
  friend class TxQueue;
  RxQueue(Device& dev, std::size_t ring_size);

  Device& dev_;
  membuf::SpscRing<membuf::PktBuf*> ring_;
  std::atomic<std::uint64_t> rx_packets_{0};
  std::atomic<std::uint64_t> ring_drops_{0};
};

/// A fast-path port, handed out by DeviceTable::config (Listing 1's
/// `device.config(port, rxQueues, txQueues)`).
class Device {
 public:
  static constexpr std::size_t kMaxDevices = 64;

  /// Waits for configured links — a no-op in the fast path, kept for
  /// script parity with Listing 1.
  static void wait_for_links() {}

  [[nodiscard]] TxQueue& get_tx_queue(int i) { return *tx_queues_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] RxQueue& get_rx_queue(int i) { return *rx_queues_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] int num_tx_queues() const { return static_cast<int>(tx_queues_.size()); }
  [[nodiscard]] int num_rx_queues() const { return static_cast<int>(rx_queues_.size()); }

  /// Source MAC of this port (derived from the id), usable as `ethSrc`.
  [[nodiscard]] proto::MacAddress mac() const;

  /// Connects this device's transmit side to `peer`'s receive queue 0 by a
  /// virtual cable. Transmitted packets are copied into `peer`'s receive
  /// mempool (a frame on a wire is a copy by nature).
  void connect_to(Device& peer);

  /// Disconnects the virtual cable (packets are then just dropped on send,
  /// like a port with no link partner — useful for pure TX benchmarks).
  void disconnect() { peer_ = nullptr; }

  [[nodiscard]] membuf::Mempool& rx_pool() { return rx_pool_; }

 private:
  explicit Device(int id);
  /// Appends queues until there are at least the given counts; existing
  /// queues (and references to them) are untouched.
  void add_queues(int rx_queues, int tx_queues);

  int id_;
  std::vector<std::unique_ptr<TxQueue>> tx_queues_;
  std::vector<std::unique_ptr<RxQueue>> rx_queues_;
  Device* peer_ = nullptr;
  membuf::Mempool rx_pool_;

  friend class TxQueue;
  friend class DeviceTable;
};

/// Owns the fast-path devices of one testbed. Each testbed::Testbed holds
/// a private table, so two testbeds in one process (or one test binary)
/// share no mutable device state.
class DeviceTable {
 public:
  DeviceTable() = default;
  DeviceTable(const DeviceTable&) = delete;
  DeviceTable& operator=(const DeviceTable&) = delete;

  /// Returns the device with the given id, configured with at least the
  /// given queue counts (mirrors `device.config{}` from Listing 1). Asking
  /// for more queues adds them to the same device. Devices live as long as
  /// the table.
  Device& config(int id, int rx_queues = 1, int tx_queues = 1);

  /// The device if already configured, else nullptr.
  [[nodiscard]] Device* find(int id);

  /// The process-wide table behind the script `device` module.
  static DeviceTable& process_default();

 private:
  std::array<std::unique_ptr<Device>, Device::kMaxDevices> devices_;
};

}  // namespace moongen::core
