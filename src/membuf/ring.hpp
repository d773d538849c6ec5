// Fixed-capacity ring buffers.
//
// SpscRing: lock-free single-producer/single-consumer ring — the fast-path
// equivalent of a DPDK rte_ring in SP/SC mode, used for the loopback wiring
// between fast-path devices.
//
// BoundedRing: single-threaded bounded FIFO — a descriptor-ring stand-in
// for std::deque in the event-driven NIC model. A deque allocates/frees
// 512-byte chunks as elements flow through; this ring touches the heap only
// when the capacity changes.
#pragma once

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

namespace moongen::membuf {

/// Single-threaded bounded FIFO over a power-of-two slot array. Capacity is
/// a hard bound (like a hardware descriptor ring): push_back on a full ring
/// is the caller's error, guarded only by full()/size() checks at the call
/// site. Storage is lazy: it grows geometrically up to the bound as elements
/// arrive, so an idle 4096-entry RX ring costs nothing (NIC models carry
/// one ring per hardware queue — eager allocation would page in megabytes
/// per port), and neither do thousands of vswitch tenant rings that never
/// queue deeply. The first growth allocates 8 slots: starting at 1 slot
/// made bench/e2e's 4-shard hwpaced_4x40g runs cost about a fifth more CPU
/// time (4-vCPU host) and saved no measurable memory in ddos_vswitch.
template <typename T>
class BoundedRing {
 public:
  explicit BoundedRing(std::size_t capacity = 1024) : capacity_(capacity) {}

  /// Sets the logical capacity, preserving (up to `capacity`) contents in
  /// order. Storage already allocated is kept.
  void set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    const std::size_t keep = size() < capacity ? size() : capacity;
    if (keep == size()) return;
    // Shrinking below the current fill: drop the newest elements.
    for (std::size_t i = tail_ + keep; i != head_; ++i) slots_[i & mask_] = T{};
    head_ = tail_ + keep;
  }

  void push_back(T value) {
    if (size() == slots_.size()) grow();
    slots_[head_ & mask_] = std::move(value);
    ++head_;
  }

  /// Eagerly allocates storage for at least `n` elements (capped at the
  /// capacity bound). Components with an allocation-free steady-state
  /// contract call this up front instead of relying on the lazy growth,
  /// which would otherwise allocate on the first deep fill mid-run.
  void reserve(std::size_t n) {
    n = n < capacity_ ? n : capacity_;
    while (slots_.size() < n) grow();
  }

  [[nodiscard]] T& front() { return slots_[tail_ & mask_]; }
  [[nodiscard]] const T& front() const { return slots_[tail_ & mask_]; }

  /// Removes and returns the oldest element.
  T pop_front() {
    T out = std::move(slots_[tail_ & mask_]);
    ++tail_;
    return out;
  }

  void clear() {
    for (std::size_t i = tail_; i != head_; ++i) slots_[i & mask_] = T{};
    tail_ = head_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return head_ - tail_; }
  [[nodiscard]] bool empty() const { return head_ == tail_; }
  [[nodiscard]] bool full() const { return size() >= capacity_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  void grow() {
    const std::size_t next_slots = slots_.empty() ? 8 : slots_.size() * 2;
    std::vector<T> next(next_slots);
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) next[i] = std::move(slots_[(tail_ + i) & mask_]);
    slots_ = std::move(next);
    mask_ = next_slots - 1;
    tail_ = 0;
    head_ = n;
  }

  std::vector<T> slots_;
  std::size_t mask_ = 0;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  // monotonically increasing; index = value & mask_
  std::size_t tail_ = 0;
};

template <typename T>
class SpscRing {
 public:
  /// `capacity` is rounded up to a power of two; one slot is reserved to
  /// distinguish full from empty.
  explicit SpscRing(std::size_t capacity = 1024) {
    std::size_t cap = 2;
    while (cap < capacity + 1) cap <<= 1;
    mask_ = cap - 1;
    slots_.resize(cap);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side. Returns false when full.
  bool push(T value) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t next = (head + 1) & mask_;
    if (next == tail_.load(std::memory_order_acquire)) return false;
    slots_[head] = std::move(value);
    head_.store(next, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when empty.
  bool pop(T& out) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_.load(std::memory_order_acquire)) return false;
    out = std::move(slots_[tail]);
    tail_.store((tail + 1) & mask_, std::memory_order_release);
    return true;
  }

  /// Consumer-side burst pop into `out`; returns number popped.
  std::size_t pop_burst(T* out, std::size_t max) {
    std::size_t n = 0;
    while (n < max && pop(out[n])) ++n;
    return n;
  }

  [[nodiscard]] bool empty() const {
    return tail_.load(std::memory_order_acquire) == head_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t size() const {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return (head - tail) & mask_;
  }

  [[nodiscard]] std::size_t capacity() const { return mask_; }

 private:
  std::vector<T> slots_;
  std::size_t mask_;
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
};

}  // namespace moongen::membuf
