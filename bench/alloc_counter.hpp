// Global operator-new counter for the benches that show a steady state
// allocates nothing (rpc_open_loop, rtt_plane, ablation_scripting).
//
// Including this header replaces the global allocation functions of the
// whole binary, so exactly one translation unit of a binary includes it.
// A bench reads allocations() before and after its measured window; the
// count covers every thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace moongen::bench {

inline std::atomic<std::uint64_t> g_allocations{0};

/// operator new calls (of every form) since the program started.
inline std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

}  // namespace moongen::bench

void* operator new(std::size_t size) {
  moongen::bench::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  moongen::bench::g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size > 0 ? size : 1) != 0)
    throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// Not inlined: inlined into a new-expression's cleanup, free() on memory
// from operator new trips GCC's -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
