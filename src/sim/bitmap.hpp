// Fixed-size bitmap with a set-bit count and a forward search: the active
// sets behind the NIC TX arbiter and the vswitch's DRR walk, which visit
// only the queues that hold work instead of every queue in turn.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace moongen::sim {

class Bitmap {
 public:
  explicit Bitmap(std::size_t bits = 0) : words_((bits + 63) / 64), size_(bits) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  /// Number of set bits.
  [[nodiscard]] std::size_t count() const { return count_; }

  [[nodiscard]] bool test(std::size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1u; }

  void assign(std::size_t i, bool value) {
    if (test(i) == value) return;
    words_[i >> 6] ^= std::uint64_t{1} << (i & 63);
    if (value) {
      ++count_;
    } else {
      --count_;
    }
  }

  /// First set bit at or after `from`, or size() when there is none.
  [[nodiscard]] std::size_t find_next(std::size_t from) const {
    if (from >= size_) return size_;
    std::size_t w = from >> 6;
    std::uint64_t word = words_[w] & (~std::uint64_t{0} << (from & 63));
    while (word == 0) {
      if (++w == words_.size()) return size_;
      word = words_[w];
    }
    return (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
  std::size_t count_ = 0;
};

}  // namespace moongen::sim
