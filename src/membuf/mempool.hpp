// Fixed-size packet-buffer pool with a pre-fill callback.
//
// Equivalent of `memory.createMemPool(function(buf) ... end)` in MoonGen
// (paper Listing 2): every buffer is initialized once at pool creation, so
// the transmit loop only needs to touch the fields that change per packet.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "membuf/pktbuf.hpp"

namespace moongen::membuf {

class Mempool {
 public:
  /// Called once per buffer at construction to pre-fill default contents.
  using InitFn = std::function<void(PktBuf&)>;

  /// Creates a pool of `capacity` buffers. `init` may be empty.
  explicit Mempool(std::size_t capacity = kDefaultCapacity, InitFn init = {});

  Mempool(const Mempool&) = delete;
  Mempool& operator=(const Mempool&) = delete;

  /// DPDK's default per-queue pool size.
  static constexpr std::size_t kDefaultCapacity = 2048;

  /// Allocates up to `out.size()` buffers with `frame_length` set.
  /// Returns the number actually allocated (< out.size() if exhausted).
  std::size_t alloc_batch(std::span<PktBuf*> out, std::size_t frame_length);

  /// Allocates a single buffer; nullptr if the pool is exhausted.
  PktBuf* alloc(std::size_t frame_length);

  /// Returns buffers to the pool. Flags are reset; contents are *not*
  /// erased (as in DPDK, recycled packets keep their previous bytes).
  void free_batch(std::span<PktBuf* const> bufs);
  void free(PktBuf* buf);

  [[nodiscard]] std::size_t capacity() const { return storage_.size(); }
  [[nodiscard]] std::size_t available() const;
  /// Buffers currently held by callers (capacity - available): the "in use"
  /// side of the conservation identity the health plane checks against the
  /// holders' own accounting.
  [[nodiscard]] std::size_t in_use() const { return capacity() - available(); }
  /// Smallest number of free buffers ever observed (diagnostic watermark).
  [[nodiscard]] std::size_t low_watermark() const { return low_watermark_; }

  /// Structural invariant audit (health plane): the free list must hold only
  /// distinct buffers owned by this pool, and no more than capacity. A
  /// double free or a foreign pointer corrupts this. Returns an empty
  /// string when consistent, else a description of the first violation.
  /// O(capacity) — call at window boundaries, not per allocation.
  [[nodiscard]] std::string audit() const;

  /// Times an allocation came back short (pool genuinely empty or an
  /// injected transient failure) — the signal the TX path's retry logic and
  /// the health plane's degradation governors are built on.
  [[nodiscard]] std::uint64_t exhausted_events() const { return exhausted_events_; }

  /// Arms the alloc-failure fault site: a fire makes the next alloc_batch
  /// return 0, as if the pool were momentarily drained. Probes run under
  /// the pool lock, so multi-threaded pools stay deterministic per seed.
  void install_faults(fault::FaultPlane& plane, const std::string& site);

 private:
  /// Tells the CPU this is a spin-wait: on x86 PAUSE backs off the
  /// speculative pipeline and yields the core to the lock holder on SMT
  /// siblings; on ARM YIELD is the equivalent hint.
  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
    asm volatile("yield" ::: "memory");
#endif
  }

  void lock() const {
    while (lock_.test_and_set(std::memory_order_acquire)) {
      // Spin on a plain load first: re-running test_and_set keeps the cache
      // line in exclusive state and starves the unlocking thread.
      while (lock_.test(std::memory_order_relaxed)) cpu_relax();
    }
  }
  void unlock() const { lock_.clear(std::memory_order_release); }

  std::vector<std::unique_ptr<PktBuf>> storage_;
  std::vector<PktBuf*> free_list_;
  std::size_t low_watermark_;
  mutable std::atomic_flag lock_ = ATOMIC_FLAG_INIT;
  std::uint64_t exhausted_events_ = 0;  // guarded by lock_
  fault::FaultPoint fp_alloc_fail_;
  fault::FaultPlane* fault_plane_ = nullptr;  // set with fp_alloc_fail_
};

}  // namespace moongen::membuf
