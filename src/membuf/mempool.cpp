#include "membuf/mempool.hpp"

#include <algorithm>

namespace moongen::membuf {

Mempool::Mempool(std::size_t capacity, InitFn init) {
  storage_.reserve(capacity);
  free_list_.reserve(capacity);
  for (std::size_t i = 0; i < capacity; ++i) {
    auto buf = std::make_unique<PktBuf>();
    buf->pool_ = this;
    if (init) init(*buf);
    free_list_.push_back(buf.get());
    storage_.push_back(std::move(buf));
  }
  low_watermark_ = capacity;
}

std::size_t Mempool::alloc_batch(std::span<PktBuf*> out, std::size_t frame_length) {
  lock();
  if (fp_alloc_fail_.installed() && fp_alloc_fail_.fire(fault_plane_->now_ps()) != nullptr) {
    // Injected transient exhaustion: the whole request fails, exactly as if
    // another queue had momentarily drained the pool.
    ++exhausted_events_;
    unlock();
    return 0;
  }
  const std::size_t n = std::min(out.size(), free_list_.size());
  for (std::size_t i = 0; i < n; ++i) {
    PktBuf* buf = free_list_.back();
    free_list_.pop_back();
    buf->set_length(frame_length);
    buf->flags_ = OffloadFlags{};
    out[i] = buf;
  }
  if (n < out.size()) ++exhausted_events_;
  low_watermark_ = std::min(low_watermark_, free_list_.size());
  unlock();
  return n;
}

void Mempool::install_faults(fault::FaultPlane& plane, const std::string& site) {
  auto point = plane.point(fault::FaultKind::kAllocFail, site);
  lock();
  fp_alloc_fail_ = point;
  // Probes pass the plane's virtual clock so time-windowed alloc_fail
  // rules gate correctly (a clock-less plane reports 0, as before).
  fault_plane_ = &plane;
  unlock();
}

PktBuf* Mempool::alloc(std::size_t frame_length) {
  PktBuf* buf = nullptr;
  (void)alloc_batch({&buf, 1}, frame_length);
  return buf;
}

void Mempool::free_batch(std::span<PktBuf* const> bufs) {
  lock();
  // Push in reverse: the freelist is LIFO, so a batch freed in array order
  // would come back reversed on the next alloc_batch. Reversing here makes
  // the steady-state alloc/free cycle return the same buffers in the same
  // positions, which keeps caches (hardware and script-side buf wrappers)
  // hot across batches.
  for (std::size_t i = bufs.size(); i > 0; --i) {
    if (bufs[i - 1] != nullptr) free_list_.push_back(bufs[i - 1]);
  }
  unlock();
}

void Mempool::free(PktBuf* buf) { free_batch({&buf, 1}); }

std::size_t Mempool::available() const {
  lock();
  const std::size_t n = free_list_.size();
  unlock();
  return n;
}

std::string Mempool::audit() const {
  lock();
  std::string err;
  if (free_list_.size() > storage_.size()) {
    err = "free list holds " + std::to_string(free_list_.size()) +
          " buffers but the pool owns only " + std::to_string(storage_.size());
  } else {
    // Membership + duplicate detection: binary-search each free-list entry
    // against a sorted index of the owned buffers (O(n log n) per audit).
    std::vector<const PktBuf*> owned;
    owned.reserve(storage_.size());
    for (const auto& buf : storage_) owned.push_back(buf.get());
    std::sort(owned.begin(), owned.end());
    std::vector<char> seen(owned.size(), 0);
    for (const PktBuf* buf : free_list_) {
      const auto it = std::lower_bound(owned.begin(), owned.end(), buf);
      if (buf == nullptr || it == owned.end() || *it != buf || buf->pool_ != this) {
        err = "free list contains a buffer not owned by this pool";
        break;
      }
      const auto idx = static_cast<std::size_t>(it - owned.begin());
      if (seen[idx] != 0) {
        err = "a buffer appears twice on the free list (double free)";
        break;
      }
      seen[idx] = 1;
    }
  }
  unlock();
  return err;
}

}  // namespace moongen::membuf
