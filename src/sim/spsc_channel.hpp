// Lock-free single-producer / single-consumer channel for cross-shard
// frame traffic (see DESIGN.md, "Parallel sharded runtime").
//
// Design constraints, in order:
//  * the producer must NEVER block mid-window: a shard that fills a bounded
//    ring while its consumer waits for that shard's epoch would deadlock
//    the whole runtime, so the channel is unbounded — storage grows in
//    chunks (ParallelRuntime's lead bound caps the backlog between windows);
//  * a push is one store into the current chunk plus one release store of
//    the chunk's count; a pop is one acquire load plus a read. No CAS, no
//    shared head/tail indices — the producer and consumer each own their
//    cursor and meet only at the per-chunk count and next pointers;
//  * capacity is recycled: fully consumed chunks are freed by the consumer,
//    so a long run's footprint is bounded by the in-flight window, not by
//    the total traffic.
//
// Thread-safety contract: exactly one producer thread and one consumer
// thread (which may be the same thread, e.g. in the runtime's serial loop).
// No other concurrent access is allowed — this is what buys the two-load
// hot path.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace moongen::sim {

template <typename T, std::size_t kChunkItems = 256>
class SpscChannel {
 public:
  SpscChannel() {
    auto* chunk = new Chunk();
    head_ = chunk;
    tail_ = chunk;
  }

  SpscChannel(const SpscChannel&) = delete;
  SpscChannel& operator=(const SpscChannel&) = delete;

  ~SpscChannel() {
    Chunk* c = head_;
    while (c != nullptr) {
      Chunk* next = c->next.load(std::memory_order_relaxed);
      delete c;
      c = next;
    }
  }

  /// Producer side. Never blocks; allocates a fresh chunk when the current
  /// one is full.
  void push(T value) {
    Chunk* chunk = tail_;
    const std::size_t n = chunk->count.load(std::memory_order_relaxed);
    if (n == kChunkItems) {
      auto* fresh = new Chunk();
      fresh->storage[0] = std::move(value);
      fresh->count.store(1, std::memory_order_relaxed);
      // Publish the chunk *after* its first item is in place.
      chunk->next.store(fresh, std::memory_order_release);
      tail_ = fresh;
      ++pushed_;
      return;
    }
    chunk->storage[n] = std::move(value);
    // The count publish makes the item visible to the consumer.
    chunk->count.store(n + 1, std::memory_order_release);
    ++pushed_;
  }

  /// Consumer side. Returns false when no published item is available.
  bool try_pop(T& out) {
    Chunk* chunk = head_;
    if (read_ == chunk->count.load(std::memory_order_acquire)) {
      if (read_ < kChunkItems) return false;  // producer still filling this chunk
      Chunk* next = chunk->next.load(std::memory_order_acquire);
      if (next == nullptr) return false;  // successor not published yet
      delete chunk;
      head_ = next;
      read_ = 0;
      chunk = next;
      if (chunk->count.load(std::memory_order_acquire) == 0) return false;
    }
    out = std::move(chunk->storage[read_]);
    ++read_;
    ++popped_;
    return true;
  }

  /// Producer-side count of items pushed over the channel's lifetime.
  [[nodiscard]] std::uint64_t pushed() const { return pushed_; }
  /// Consumer-side count of items popped over the channel's lifetime.
  [[nodiscard]] std::uint64_t popped() const { return popped_; }

 private:
  struct Chunk {
    T storage[kChunkItems];
    std::atomic<std::size_t> count{0};
    std::atomic<Chunk*> next{nullptr};
  };

  // Consumer-owned state.
  Chunk* head_;
  std::size_t read_ = 0;
  std::uint64_t popped_ = 0;

  // Producer-owned state (separate line from the consumer's cursor).
  alignas(64) Chunk* tail_;
  std::uint64_t pushed_ = 0;
};

}  // namespace moongen::sim
