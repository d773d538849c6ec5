// Flat open-addressing table for in-flight RPC requests.
//
// An open-loop generator near saturation holds *millions* of outstanding
// requests (the whole point of the open-vs-closed comparison is that the
// open system's backlog is unbounded). A node-based map would pay one
// allocation and a pointer chase per request; this table is one flat array
// of 32-byte records, fully allocated at construction, with linear probing
// and backward-shift deletion — the steady state never touches the heap
// and a lookup is one hash plus a short scan in one or two cache lines.
//
// Sequence ids are the keys; id 0 is reserved as the empty marker (the
// generators start their sequences at 1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/time.hpp"
#include "stats/samplers.hpp"

namespace moongen::rpc {

class InFlightTable {
 public:
  struct Record {
    std::uint64_t seq = 0;  // 0: slot empty
    std::uint64_t key = 0;
    sim::SimTime tx_time_ps = 0;
    std::uint64_t aux = 0;  // caller-defined (closed-loop: user index)
  };
  static_assert(sizeof(Record) == 32);

  /// Sized to hold `expected` entries: the slot count is the next power of
  /// two at or above 2 * expected (load factor <= 0.5 at the expected
  /// population; inserts are refused beyond ~87 % occupancy).
  explicit InFlightTable(std::size_t expected) {
    std::size_t slots = 16;
    while (slots < expected * 2) slots <<= 1;
    slots_.resize(slots);
    mask_ = slots - 1;
    max_size_ = slots - slots / 8;
  }

  /// False if `seq` is zero, already present, or the table is at its
  /// occupancy ceiling.
  bool insert(std::uint64_t seq, std::uint64_t key, sim::SimTime tx_time_ps,
              std::uint64_t aux = 0) {
    if (seq == 0 || size_ >= max_size_) return false;
    std::size_t i = hash(seq);
    while (slots_[i].seq != 0) {
      if (slots_[i].seq == seq) return false;
      i = (i + 1) & mask_;
    }
    slots_[i] = Record{seq, key, tx_time_ps, aux};
    ++size_;
    if (size_ > peak_) peak_ = size_;
    return true;
  }

  /// Removes and returns the record for `seq`, or nullopt.
  std::optional<Record> take(std::uint64_t seq) {
    if (seq == 0) return std::nullopt;
    std::size_t i = hash(seq);
    while (slots_[i].seq != 0) {
      if (slots_[i].seq == seq) {
        const Record out = slots_[i];
        erase_at(i);
        return out;
      }
      i = (i + 1) & mask_;
    }
    return std::nullopt;
  }

  [[nodiscard]] bool contains(std::uint64_t seq) const {
    if (seq == 0) return false;
    std::size_t i = hash(seq);
    while (slots_[i].seq != 0) {
      if (slots_[i].seq == seq) return true;
      i = (i + 1) & mask_;
    }
    return false;
  }

  /// Removes every record with tx_time_ps < deadline, invoking fn(record)
  /// for each. One full-table scan; records shifted backwards across the
  /// scan position during deletion are caught on the next sweep, so a
  /// periodic caller reclaims every expired entry within two sweeps.
  template <typename Fn>
  std::size_t evict_older_than(sim::SimTime deadline_ps, Fn&& fn) {
    std::size_t evicted = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      while (slots_[i].seq != 0 && slots_[i].tx_time_ps < deadline_ps) {
        const Record r = slots_[i];
        erase_at(i);
        fn(r);
        ++evicted;
        // erase_at may shift a successor into slot i: re-examine it.
      }
    }
    return evicted;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t peak() const { return peak_; }
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

 private:
  [[nodiscard]] std::size_t hash(std::uint64_t seq) const {
    // Sequential ids scatter uniformly.
    return static_cast<std::size_t>(stats::splitmix64(seq) & mask_);
  }

  /// Backward-shift deletion: close the gap by moving displaced successors
  /// down, so probes never need tombstones and long-lived tables don't
  /// degrade (classic Knuth 6.4 algorithm R).
  void erase_at(std::size_t i) {
    std::size_t j = i;
    for (;;) {
      slots_[i].seq = 0;
      for (;;) {
        j = (j + 1) & mask_;
        if (slots_[j].seq == 0) {
          --size_;
          return;
        }
        const std::size_t home = hash(slots_[j].seq);
        // Move j down iff its home position does not lie in (i, j]
        // cyclically — i.e. the probe from home to j passes through i.
        if (i <= j ? (home <= i || home > j) : (home <= i && home > j)) break;
      }
      slots_[i] = slots_[j];
      i = j;
    }
  }

  std::vector<Record> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::size_t peak_ = 0;
  std::size_t max_size_ = 0;
};

}  // namespace moongen::rpc
