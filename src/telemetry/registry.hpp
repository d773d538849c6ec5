// MetricRegistry: the process-wide table of telemetry readers.
//
// A component counts once, in its own fields (PortStats, the vswitch's
// books, the timestamper's samples). bind_telemetry registers, per metric
// name, a reader of such a field through the component's Binding; a
// snapshot calls the readers. Snapshots are taken only at quiesced
// instants (Testbed::snapshot, the telemetry window hook, a quiesced
// HealthMonitor::dump), so the fields need no atomics and the hot paths
// carry no telemetry code at all — the way MoonGen's stats counters read
// the NIC's own statistics registers when they report.
//
// Readers of one counter name sum and readers of one histogram name merge
// (several shards' fault planes report under `fault.total`); a gauge name
// holds one live reader. When a component dies, its Binding replaces each
// of its readers with the value it reads last, so a later snapshot still
// reports the component's final totals. Values no component owns (a
// bench's fitted constants, an example's end-of-run rates) are published
// with add_counter / set_gauge.
//
// Lifetime: the registry must outlive every Binding opened on it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

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

class MetricRegistry;

/// One component's readers in one registry. Move-only. Destroying it (with
/// its component — declare it as the component's last member, so it goes
/// first) replaces each reader with the value it returns then.
class Binding {
 public:
  Binding() = default;
  Binding(Binding&& other) noexcept
      : registry_(std::exchange(other.registry_, nullptr)), id_(other.id_) {}
  Binding& operator=(Binding&& other) noexcept;
  Binding(const Binding&) = delete;
  Binding& operator=(const Binding&) = delete;
  ~Binding() { release(); }

  /// Starts registering readers in `registry`. Throws std::logic_error if
  /// this binding is already open: a component is bound once.
  void open(MetricRegistry& registry);
  [[nodiscard]] bool bound() const { return registry_ != nullptr; }

  /// Registers a reader under `name`. Throws std::logic_error before
  /// open(); std::invalid_argument when a gauge name already has a live
  /// reader or a histogram name another geometry.
  void counter(const std::string& name, std::function<std::uint64_t()> read);
  void gauge(const std::string& name, std::function<double()> read);
  void histogram(const std::string& name, std::function<LogLinearHistogram()> read);

 private:
  /// The open registry; throws std::logic_error naming `name` before open().
  MetricRegistry& registry(const std::string& name) const;
  void release();

  MetricRegistry* registry_ = nullptr;
  std::uint64_t id_ = 0;
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Publishes a value no component owns: adds `n` to counter `name`, or
  /// sets gauge `name` (throws std::invalid_argument if a live reader
  /// holds that gauge).
  void add_counter(const std::string& name, std::uint64_t n);
  void set_gauge(const std::string& name, double value);

  /// Every metric, read now. Call at a quiesced instant.
  [[nodiscard]] Snapshot snapshot(std::uint64_t timestamp_ns = 0) const;

  // Single-metric reads; absent names read as zero / an empty histogram.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  [[nodiscard]] double gauge_value(const std::string& name) const;
  [[nodiscard]] LogLinearHistogram histogram_merged(const std::string& name) const;

  [[nodiscard]] std::size_t metric_count() const;

 private:
  friend class Binding;

  /// The readers of one name, and what readers whose component is gone
  /// (or direct publication) left behind.
  template <typename T>
  struct Metric {
    std::optional<T> fixed;
    std::vector<std::pair<std::uint64_t, std::function<T()>>> live;  // (binding id, reader)
  };
  template <typename T>
  using Book = std::map<std::string, Metric<T>>;

  /// Folds one reader's value into `acc`: counters add, gauges replace,
  /// histograms merge.
  static void fold(std::optional<std::uint64_t>& acc, std::uint64_t v) {
    acc = acc.value_or(0) + v;
  }
  static void fold(std::optional<double>& acc, double v) { acc = v; }
  static void fold(std::optional<LogLinearHistogram>& acc, LogLinearHistogram v);

  template <typename T>
  static std::optional<T> read(const Metric<T>& m);
  template <typename T>
  static void retire(Book<T>& book, std::uint64_t id);

  std::uint64_t open_binding();
  void release(std::uint64_t id);

  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  Book<std::uint64_t> counters_;
  Book<double> gauges_;
  Book<LogLinearHistogram> histograms_;
};

}  // namespace moongen::telemetry
