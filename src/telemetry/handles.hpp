// Resolve-once metric handles: the hot-path telemetry API.
//
// Each simulation shard owns one *metric tree* (MetricTree); a component
// resolves its named slots exactly once at wiring time (bind_telemetry),
// and a hot-path update through the returned handle is a single relaxed
// add on a slot no other shard writes — no thread->shard lookup, no name
// lookup. Trees are merged into one name-sorted Snapshot at quiesced
// window boundaries (the ParallelRuntime barrier), where cross-shard sums
// are exact.
//
// Contracts:
//  * Registration (counter()/gauge()/histogram()) takes the tree mutex and
//    may allocate; handles stay valid for the tree's lifetime.
//  * Counter/gauge slots are relaxed atomics: any thread may bump any
//    handle without tearing, and sums are exact once writers quiesce.
//  * A histogram slot is plain (recording is not atomic): it must have a
//    single writer thread — the shard that bound it.
//  * Handles are null-tolerant: a default-constructed handle is a no-op
//    sink, so components can drop the `if (tm_ != nullptr)` dance.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "telemetry/log_linear_histogram.hpp"

namespace moongen::telemetry {

struct CounterSlot {
  std::atomic<std::uint64_t> value{0};
};

struct GaugeSlot {
  std::atomic<double> value{0.0};
};

/// Monotonic counter handle. One relaxed fetch_add per update; no shard
/// lookup, no name lookup, no allocation.
class CounterHandle {
 public:
  CounterHandle() = default;

  void add(std::uint64_t n = 1) {
    if (slot_ != nullptr) slot_->value.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return slot_ != nullptr ? slot_->value.load(std::memory_order_relaxed) : 0;
  }
  [[nodiscard]] bool valid() const { return slot_ != nullptr; }

 private:
  friend class MetricTree;
  explicit CounterHandle(CounterSlot* slot) : slot_(slot) {}
  CounterSlot* slot_ = nullptr;
};

/// Last-writer-wins scalar handle.
class GaugeHandle {
 public:
  GaugeHandle() = default;

  void set(double v) {
    if (slot_ != nullptr) slot_->value.store(v, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const {
    return slot_ != nullptr ? slot_->value.load(std::memory_order_relaxed) : 0.0;
  }
  [[nodiscard]] bool valid() const { return slot_ != nullptr; }

 private:
  friend class MetricTree;
  explicit GaugeHandle(GaugeSlot* slot) : slot_(slot) {}
  GaugeSlot* slot_ = nullptr;
};

/// Histogram handle: single-writer (the owning shard's thread), readers
/// only at quiesced instants.
class HistogramHandle {
 public:
  HistogramHandle() = default;

  void record(std::uint64_t value, std::uint64_t count = 1) {
    if (slot_ != nullptr) slot_->record(value, count);
  }
  /// Folds an identically-configured histogram into the slot (window
  /// publishers push merged windows this way). Same single-writer rule.
  void merge(const LogLinearHistogram& other) {
    if (slot_ != nullptr) slot_->merge(other);
  }
  [[nodiscard]] bool valid() const { return slot_ != nullptr; }
  /// Quiesced-read access (tests, checkers). Null when the handle is empty.
  [[nodiscard]] const LogLinearHistogram* get() const { return slot_; }

 private:
  friend class MetricTree;
  explicit HistogramHandle(LogLinearHistogram* slot) : slot_(slot) {}
  LogLinearHistogram* slot_ = nullptr;
};

/// One shard's namespace of metric slots. Owned by MetricRegistry (one per
/// simulation shard, grown on demand); components resolve handles once at
/// bind time and never touch the tree again from hot loops.
class MetricTree {
 public:
  MetricTree() = default;
  MetricTree(const MetricTree&) = delete;
  MetricTree& operator=(const MetricTree&) = delete;

  /// Returns a handle to the counter named `name`, creating the slot on
  /// first use. Resolving the same name twice yields the same slot.
  [[nodiscard]] CounterHandle counter(const std::string& name);

  [[nodiscard]] GaugeHandle gauge(const std::string& name);

  /// `config` applies on first creation; re-resolving with a different
  /// geometry throws std::invalid_argument (merging would corrupt).
  [[nodiscard]] HistogramHandle histogram(const std::string& name, HistogramConfig config = {});

  [[nodiscard]] std::size_t slot_count() const;

  /// Snapshot-side enumeration, used by MetricRegistry::snapshot to merge
  /// trees at quiesced instants. Callbacks run under the tree mutex.
  void visit_counters(const std::function<void(const std::string&, std::uint64_t)>& fn) const;
  void visit_gauges(const std::function<void(const std::string&, double)>& fn) const;
  void visit_histograms(
      const std::function<void(const std::string&, const LogLinearHistogram&)>& fn) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<CounterSlot>> counters_;
  std::map<std::string, std::unique_ptr<GaugeSlot>> gauges_;
  std::map<std::string, std::unique_ptr<LogLinearHistogram>> histograms_;
};

}  // namespace moongen::telemetry
