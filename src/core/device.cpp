#include "core/device.hpp"

#include <array>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "proto/headers.hpp"

namespace moongen::core {

namespace {

std::uint64_t nanotime() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

}  // namespace

// ---------------------------------------------------------------------------
// Device / DeviceTable
// ---------------------------------------------------------------------------

Device::Device(int id) : id_(id), rx_pool_(4096) {}

void Device::add_queues(int rx_queues, int tx_queues) {
  while (num_tx_queues() < tx_queues)
    tx_queues_.push_back(std::unique_ptr<TxQueue>(new TxQueue(*this)));
  while (num_rx_queues() < rx_queues)
    rx_queues_.push_back(std::unique_ptr<RxQueue>(new RxQueue(*this, 4096)));
}

Device& DeviceTable::config(int id, int rx_queues, int tx_queues) {
  if (id < 0 || static_cast<std::size_t>(id) >= Device::kMaxDevices)
    throw std::out_of_range("Device id out of range");
  auto& slot = devices_[static_cast<std::size_t>(id)];
  if (!slot) slot.reset(new Device(id));
  // Grow in place: script handles, queue references and connected peers
  // keep pointing at this device.
  slot->add_queues(rx_queues, tx_queues);
  return *slot;
}

Device* DeviceTable::find(int id) {
  if (id < 0 || static_cast<std::size_t>(id) >= Device::kMaxDevices) return nullptr;
  return devices_[static_cast<std::size_t>(id)].get();
}

DeviceTable& DeviceTable::process_default() {
  static DeviceTable table;
  return table;
}

proto::MacAddress Device::mac() const {
  // Locally administered address derived from the port id.
  return proto::MacAddress::from_uint64(0x020000000000ull + static_cast<std::uint64_t>(id_));
}

void Device::connect_to(Device& peer) { peer_ = &peer; }

// ---------------------------------------------------------------------------
// TxQueue
// ---------------------------------------------------------------------------

TxQueue::TxQueue(Device& dev, std::size_t ring_size) : dev_(dev) {
  std::size_t cap = 1;
  while (cap < ring_size) cap <<= 1;
  ring_.assign(cap, Descriptor{});
  prev_batch_.reserve(64);
  prev_pools_.reserve(64);
}

void TxQueue::reset() {
  for (auto& slot : ring_) slot = Descriptor{};
  // Drop (not free) the in-flight references: reset() exists to be called
  // before a mempool is destroyed, and the pools own the buffer storage.
  prev_batch_.clear();
  prev_pools_.clear();
  head_ = 0;
  pace_next_ns_ = 0;
}

TxQueue::~TxQueue() {
  // Buffers still referenced by descriptors are NOT returned to their
  // mempools here: the pools own the buffer storage outright and may
  // already be gone (a device table may outlive the pools its queues sent
  // from). Dropping the references is safe and leak-free.
}

void TxQueue::pace(std::size_t wire_bytes) {
  if (rate_mbit_ <= 0.0) return;
  std::uint64_t now = nanotime();
  if (pace_next_ns_ == 0) pace_next_ns_ = now;
  // Sleep through long waits (frees the core for other tasks on small
  // hosts), busy-wait the last stretch for precision.
  if (pace_next_ns_ > now + 200'000) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(pace_next_ns_ - now - 100'000));
    now = nanotime();
  }
  while (now < pace_next_ns_) now = nanotime();
  pace_next_ns_ += static_cast<std::uint64_t>(static_cast<double>(wire_bytes) * 8.0 * 1e3 /
                                              rate_mbit_);
}

std::uint16_t TxQueue::send(membuf::BufArray& bufs) {
  if (bufs.last_shortfall() > 0) {
    // The mempool came back short: the burst on the wire is smaller than
    // the script asked for. Surface it — silent shrinkage skews CBR spacing.
    ++short_batches_;
  }
  const auto packets = bufs.packets();
  if (rate_mbit_ > 0.0) {
    // Only a rate-limited queue needs the wire-size total; unlimited sends
    // skip this extra pass over the batch.
    std::size_t total_wire = 0;
    for (auto* buf : packets) total_wire += proto::wire_size(buf->length() + proto::kFcsSize);
    pace(total_wire);
  }

  // Recycle the previous batch: its frames have been "transmitted" by the
  // time the application enqueues more work (DPDK's tx_rs_thresh cleanup
  // with a one-batch window). Free in runs that share a pool so the pool
  // lock is taken per run, not per buffer.
  if (!prev_batch_.empty()) {
    std::size_t start = 0;
    while (start < prev_batch_.size()) {
      membuf::Mempool* pool = prev_pools_[start];
      std::size_t end = start + 1;
      while (end < prev_batch_.size() && prev_pools_[end] == pool) ++end;
      pool->free_batch({prev_batch_.data() + start, end - start});
      start = end;
    }
    prev_batch_.clear();
    prev_pools_.clear();
  }

  Device* peer = dev_.peer_;
  const std::size_t mask = ring_.size() - 1;
  std::uint64_t batch_bytes = 0;
  prev_batch_.assign(packets.begin(), packets.end());
  prev_pools_.resize(packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    membuf::PktBuf* buf = packets[i];
    Descriptor& slot = ring_[head_ & mask];
    const auto& fl = buf->flags();
    const auto length = static_cast<std::uint32_t>(buf->length());
    slot.buf = buf;
    slot.length = length;
    slot.flags = static_cast<std::uint32_t>(fl.ip_checksum) |
                 static_cast<std::uint32_t>(fl.udp_checksum) << 1 |
                 static_cast<std::uint32_t>(fl.tcp_checksum) << 2 |
                 static_cast<std::uint32_t>(fl.invalid_crc) << 3;
    ++head_;
    batch_bytes += length;
    prev_pools_[i] = buf->pool();

    if (peer != nullptr) {
      // A frame on a wire is a copy: materialize into the peer's RX pool.
      auto& rxq = *peer->rx_queues_[0];
      membuf::PktBuf* rb = peer->rx_pool_.alloc(buf->length());
      if (rb == nullptr) {
        rxq.ring_drops_.fetch_add(1, std::memory_order_relaxed);
      } else {
        std::memcpy(rb->data(), buf->data(), buf->length());
        if (!rxq.ring_.push(rb)) {
          peer->rx_pool_.free(rb);
          rxq.ring_drops_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  }
  const auto n = static_cast<std::uint16_t>(packets.size());
  sent_packets_ += n;
  sent_bytes_ += batch_bytes;
  bufs.set_size(0);  // buffers now belong to the queue until recycled
  return n;
}

// ---------------------------------------------------------------------------
// RxQueue
// ---------------------------------------------------------------------------

RxQueue::RxQueue(Device& dev, std::size_t ring_size) : dev_(dev), ring_(ring_size) {}

std::uint16_t RxQueue::recv(membuf::BufArray& bufs) {
  const std::size_t n = ring_.pop_burst(bufs.storage().data(), bufs.capacity());
  bufs.set_size(n);
  rx_packets_.fetch_add(n, std::memory_order_relaxed);
  return static_cast<std::uint16_t>(n);
}

}  // namespace moongen::core
