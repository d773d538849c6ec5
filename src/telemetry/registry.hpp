// MetricRegistry: the process-wide namespace of telemetry instruments.
//
// Since the per-shard metric API redesign (DESIGN.md Section 15) the
// registry is a collection of per-shard MetricTrees (handles.hpp):
// components resolve CounterHandle/GaugeHandle/HistogramHandle once at
// wiring time from the tree of the simulation shard that owns them, and
// hot-path updates are raw slot bumps with no name or shard lookup.
// `snapshot()` merges every tree into one consistent, name-sorted view
// (Testbed::snapshot, the JSON writers): counters sum across trees,
// histograms merge losslessly (identical geometry enforced), gauges are
// last-writer-wins in shard order.
//
// The name-keyed shared-instrument accessors (`counter()` / `gauge()` /
// `histogram()`) were a one-release deprecated shim after the per-shard
// redesign; they are gone — resolve handles via `shard(i).counter(name)`.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/handles.hpp"
#include "telemetry/log_linear_histogram.hpp"

namespace moongen::telemetry {

struct CounterSample {
  std::string name;
  std::uint64_t value;
};

struct GaugeSample {
  std::string name;
  double value;
};

struct HistogramSample {
  std::string name;
  LogLinearHistogram hist;
};

/// Point-in-time view of every metric in a registry, name-sorted.
struct Snapshot {
  std::uint64_t timestamp_ns = 0;
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// The metric tree of simulation shard `index`, created on first use.
  /// Tree 0 doubles as the default tree for single-shard and main-thread
  /// components. References stay valid for the registry's lifetime.
  [[nodiscard]] MetricTree& shard(std::size_t index = 0);

  /// Number of shard trees created so far.
  [[nodiscard]] std::size_t tree_count() const;

  /// Merged view across every shard tree. Exact at quiesced instants
  /// (window boundaries, after run_until).
  [[nodiscard]] Snapshot snapshot(std::uint64_t timestamp_ns = 0) const;

  // --- shard-agnostic reads -------------------------------------------------
  // Sum/merge the named instrument across every tree, without creating it
  // (absent names read as zero/empty). These are the read-side replacement
  // for the old `registry.counter(name).value()` patterns: exact at
  // quiesced instants, no knowledge of which shard wrote it.

  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  /// Last-writer-wins in (tree 0, tree 1, ...) order.
  [[nodiscard]] double gauge_value(const std::string& name) const;
  [[nodiscard]] LogLinearHistogram histogram_merged(const std::string& name) const;

  /// Distinct instrument names across all trees.
  [[nodiscard]] std::size_t metric_count() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<MetricTree>> trees_;
};

}  // namespace moongen::telemetry
