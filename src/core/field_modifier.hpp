// Per-packet field randomization engine (paper Section 5.6.2, Table 2).
//
// Generator scripts vary header fields per packet either with a random
// number generator or with a wrapping counter. The paper measures both: a
// Tausworthe generator (LuaJIT's default) costs ~17 cycles per field, a
// wrapping counter ~1 cycle — so counters should be preferred when the
// traffic definition allows it. This module provides both generators plus
// the cheaper LCG the paper suggests, and a small "modifier program" that
// applies a list of field actions to each packet (the declarative
// equivalent of the per-packet script body).
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

namespace moongen::core {

/// Three-component Tausworthe generator (taus88, L'Ecuyer) — the same
/// family as LuaJIT's math.random.
class Tausworthe {
 public:
  explicit Tausworthe(std::uint32_t seed = 0x1234abcd) {
    // Seeds must satisfy the taus88 preconditions (>= 2/8/16).
    s1_ = seed | 0x10u;
    s2_ = (seed * 0x9e3779b9u) | 0x100u;
    s3_ = (seed * 0x85ebca6bu) | 0x1000u;
    for (int i = 0; i < 8; ++i) next();  // warm up
  }

  std::uint32_t next() {
    s1_ = ((s1_ & 0xFFFFFFFEu) << 12) ^ (((s1_ << 13) ^ s1_) >> 19);
    s2_ = ((s2_ & 0xFFFFFFF8u) << 4) ^ (((s2_ << 2) ^ s2_) >> 25);
    s3_ = ((s3_ & 0xFFFFFFF0u) << 17) ^ (((s3_ << 3) ^ s3_) >> 11);
    return s1_ ^ s2_ ^ s3_;
  }

 private:
  std::uint32_t s1_, s2_, s3_;
};

/// Linear congruential generator — the cheaper alternative the paper
/// suggests when the random-number quality does not matter.
class Lcg {
 public:
  explicit Lcg(std::uint32_t seed = 1) : state_(seed) {}
  std::uint32_t next() {
    state_ = state_ * 1664525u + 1013904223u;
    return state_;
  }

 private:
  std::uint32_t state_;
};

/// A field inside the packet buffer: byte offset and width (1, 2 or 4).
struct FieldRef {
  std::uint16_t offset = 0;
  std::uint8_t width = 4;
};

/// One per-packet action on a field.
struct FieldAction {
  enum class Kind : std::uint8_t {
    kConstant,  ///< write a fixed value (baseline in Table 2)
    kCounter,   ///< wrapping counter, +1 per packet
    kRandom,    ///< Tausworthe random draw per packet
  };

  FieldRef field;
  Kind kind = Kind::kConstant;
  std::uint32_t value = 0;  ///< constant value / counter start
  std::uint32_t range = 0;  ///< counter wrap / random modulus (0 = full width)
};

/// Compiled list of field actions applied to every packet — the hot loop
/// body of a generator script.
class ModifierProgram {
 public:
  explicit ModifierProgram(const std::vector<FieldAction>& actions = {}, std::uint32_t seed = 42)
      : rng_(seed) {
    for (const FieldAction& action : actions) add(action);
  }

  /// Empties the program but keeps its storage, so rebinding it with add()
  /// allocates only when it grows past its largest size so far.
  void clear() {
    actions_.clear();
    counters_.clear();
  }

  /// Appends an action; a counter starts at `action.value`.
  void add(const FieldAction& action) {
    actions_.push_back(action);
    counters_.push_back(action.value);
  }

  /// Applies all actions to the packet at `data` (no bounds checks — the
  /// same deliberate tradeoff as MoonGen's userscripts, Section 5).
  void apply(std::uint8_t* data) {
    for (std::size_t i = 0; i < actions_.size(); ++i) {
      const FieldAction& a = actions_[i];
      std::uint32_t v;
      switch (a.kind) {
        case FieldAction::Kind::kConstant:
          v = a.value;
          break;
        case FieldAction::Kind::kCounter:
          v = counters_[i]++;
          if (a.range != 0 && counters_[i] >= a.value + a.range) counters_[i] = a.value;
          break;
        case FieldAction::Kind::kRandom:
        default:
          v = rng_.next();
          if (a.range != 0) v = a.value + v % a.range;
          break;
      }
      write_field(data + a.field.offset, a.field.width, v);
    }
  }

  /// Applies all actions using an externally supplied random source instead
  /// of the built-in Tausworthe. `draw` is any callable returning an
  /// unsigned integer; for kRandom actions with a modulus the reduction is
  /// performed on the full draw (`value + draw() % range`), so a 64-bit
  /// engine keeps its exact stream semantics. Used by the script trace
  /// specializer, whose kernels must consume the interpreter's math.random
  /// engine draw-for-draw.
  template <typename DrawFn>
  void apply_with_rng(std::uint8_t* data, DrawFn&& draw) {
    for (std::size_t i = 0; i < actions_.size(); ++i) {
      const FieldAction& a = actions_[i];
      std::uint32_t v;
      switch (a.kind) {
        case FieldAction::Kind::kConstant:
          v = a.value;
          break;
        case FieldAction::Kind::kCounter:
          v = counters_[i]++;
          if (a.range != 0 && counters_[i] >= a.value + a.range) counters_[i] = a.value;
          break;
        case FieldAction::Kind::kRandom:
        default: {
          const std::uint64_t r = static_cast<std::uint64_t>(draw());
          v = a.range != 0 ? a.value + static_cast<std::uint32_t>(r % a.range)
                           : static_cast<std::uint32_t>(r);
          break;
        }
      }
      write_field(data + a.field.offset, a.field.width, v);
    }
  }

  [[nodiscard]] std::size_t action_count() const { return actions_.size(); }

 private:
  static void write_field(std::uint8_t* dst, std::uint8_t width, std::uint32_t v) {
    // Big-endian store, matching network header fields.
    switch (width) {
      case 1:
        dst[0] = static_cast<std::uint8_t>(v);
        break;
      case 2: {
        dst[0] = static_cast<std::uint8_t>(v >> 8);
        dst[1] = static_cast<std::uint8_t>(v);
        break;
      }
      default: {
        dst[0] = static_cast<std::uint8_t>(v >> 24);
        dst[1] = static_cast<std::uint8_t>(v >> 16);
        dst[2] = static_cast<std::uint8_t>(v >> 8);
        dst[3] = static_cast<std::uint8_t>(v);
        break;
      }
    }
  }

  std::vector<FieldAction> actions_;
  std::vector<std::uint32_t> counters_;
  Tausworthe rng_;
};

}  // namespace moongen::core
