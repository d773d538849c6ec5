// Small-buffer-optimized move-only callable for the event engine.
//
// std::function heap-allocates every closure larger than its tiny internal
// buffer (16 bytes in libstdc++) — at 3-5 events per simulated frame that
// is 3-5 malloc/free pairs per packet, the single largest cost in the
// discrete-event hot path. InlineFunction stores closures up to kCapacity
// bytes (sized for the largest hot-path closure, Port::deliver_frame's
// [this, frame]) directly inside the object; only oversized or
// throwing-move callables fall back to the heap. Hot-path call sites
// static_assert the inline fit via fits_inline<F>() (see
// EventQueue::schedule_at_inline), so a capture that silently outgrows the
// buffer is a compile error, not a performance regression.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace moongen::sim {

class InlineFunction {
 public:
  /// Inline storage size: fits the largest hot-path closure,
  /// Port::deliver_frame's [this, frame] (a 40-byte Frame and a pointer;
  /// the arrival time is recovered from the event time to stay within it).
  static constexpr std::size_t kCapacity = 48;

  /// True if `F` will be stored inline (no heap allocation). Requires a
  /// nothrow move constructor: inline storage is relocated when the
  /// engine's event vectors grow or sort.
  template <typename F>
  static constexpr bool fits_inline() {
    return sizeof(F) <= kCapacity && alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

  InlineFunction() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                        std::is_invocable_r_v<void, D&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for std::function
  InlineFunction(F&& f) {
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  /// Constructs `F` directly in the buffer, destroying any current callable
  /// first — the zero-move path for hot-path scheduling (the closure is
  /// built in place inside the event record, never relocated on the way in).
  template <typename F, typename D = std::decay_t<F>>
  void emplace(F&& f) {
    reset();
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  ~InlineFunction() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs into `dst` from `src`, then destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* self) { (*static_cast<D*>(self))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* self) noexcept { static_cast<D*>(self)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* self) { (**static_cast<D**>(self))(); },
      [](void* dst, void* src) noexcept { *static_cast<D**>(dst) = *static_cast<D**>(src); },
      [](void* self) noexcept { delete *static_cast<D**>(self); },
  };

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kCapacity];
  const Ops* ops_ = nullptr;
};

}  // namespace moongen::sim
