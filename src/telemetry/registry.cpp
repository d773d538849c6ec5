#include "telemetry/registry.hpp"

#include <stdexcept>

namespace moongen::telemetry {

// --- Binding ----------------------------------------------------------------

Binding& Binding::operator=(Binding&& other) noexcept {
  if (this != &other) {
    release();
    registry_ = std::exchange(other.registry_, nullptr);
    id_ = other.id_;
  }
  return *this;
}

void Binding::open(MetricRegistry& registry) {
  if (registry_ != nullptr)
    throw std::logic_error("telemetry::Binding: component is already bound");
  id_ = registry.open_binding();
  registry_ = &registry;
}

MetricRegistry& Binding::registry(const std::string& name) const {
  if (registry_ == nullptr)
    throw std::logic_error("telemetry::Binding: reader '" + name + "' before open()");
  return *registry_;
}

void Binding::counter(const std::string& name, std::function<std::uint64_t()> read) {
  MetricRegistry& reg = registry(name);
  std::scoped_lock lock(reg.mutex_);
  reg.counters_[name].live.emplace_back(id_, std::move(read));
}

void Binding::gauge(const std::string& name, std::function<double()> read) {
  MetricRegistry& reg = registry(name);
  std::scoped_lock lock(reg.mutex_);
  auto& metric = reg.gauges_[name];
  if (!metric.live.empty())
    throw std::invalid_argument("MetricRegistry: gauge '" + name + "' already has a reader");
  metric.live.emplace_back(id_, std::move(read));
}

void Binding::histogram(const std::string& name, std::function<LogLinearHistogram()> read) {
  MetricRegistry& reg = registry(name);
  const HistogramConfig config = read().config();
  std::scoped_lock lock(reg.mutex_);
  auto& metric = reg.histograms_[name];
  std::optional<HistogramConfig> have;
  if (metric.fixed.has_value())
    have = metric.fixed->config();
  else if (!metric.live.empty())
    have = metric.live.front().second().config();
  if (have.has_value() && *have != config)
    throw std::invalid_argument("MetricRegistry: histogram '" + name +
                                "' re-registered with different geometry");
  metric.live.emplace_back(id_, std::move(read));
}

void Binding::release() {
  if (registry_ != nullptr) std::exchange(registry_, nullptr)->release(id_);
}

// --- MetricRegistry ---------------------------------------------------------

void MetricRegistry::fold(std::optional<LogLinearHistogram>& acc, LogLinearHistogram v) {
  if (acc.has_value())
    acc->merge(v);
  else
    acc = std::move(v);
}

template <typename T>
std::optional<T> MetricRegistry::read(const Metric<T>& m) {
  std::optional<T> acc = m.fixed;
  for (const auto& [id, reader] : m.live) fold(acc, reader());
  return acc;
}

template <typename T>
void MetricRegistry::retire(Book<T>& book, std::uint64_t id) {
  for (auto& [name, metric] : book) {
    auto& live = metric.live;
    for (auto it = live.begin(); it != live.end();) {
      if (it->first != id) {
        ++it;
        continue;
      }
      fold(metric.fixed, it->second());
      it = live.erase(it);
    }
  }
}

std::uint64_t MetricRegistry::open_binding() {
  std::scoped_lock lock(mutex_);
  return next_id_++;
}

void MetricRegistry::release(std::uint64_t id) {
  std::scoped_lock lock(mutex_);
  retire(counters_, id);
  retire(gauges_, id);
  retire(histograms_, id);
}

void MetricRegistry::add_counter(const std::string& name, std::uint64_t n) {
  std::scoped_lock lock(mutex_);
  fold(counters_[name].fixed, n);
}

void MetricRegistry::set_gauge(const std::string& name, double value) {
  std::scoped_lock lock(mutex_);
  auto& metric = gauges_[name];
  if (!metric.live.empty())
    throw std::invalid_argument("MetricRegistry: gauge '" + name + "' has a reader");
  metric.fixed = value;
}

Snapshot MetricRegistry::snapshot(std::uint64_t timestamp_ns) const {
  Snapshot snap;
  snap.timestamp_ns = timestamp_ns;
  // Readers run under the lock, so no Binding can retire one mid-call.
  std::scoped_lock lock(mutex_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, metric] : counters_)
    snap.counters.push_back({name, read(metric).value_or(0)});
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, metric] : gauges_)
    snap.gauges.push_back({name, read(metric).value_or(0.0)});
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, metric] : histograms_)
    if (auto hist = read(metric); hist.has_value())
      snap.histograms.push_back({name, std::move(*hist)});
  return snap;
}

std::uint64_t MetricRegistry::counter_value(const std::string& name) const {
  std::scoped_lock lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : read(it->second).value_or(0);
}

double MetricRegistry::gauge_value(const std::string& name) const {
  std::scoped_lock lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : read(it->second).value_or(0.0);
}

LogLinearHistogram MetricRegistry::histogram_merged(const std::string& name) const {
  std::scoped_lock lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end())
    if (auto hist = read(it->second); hist.has_value()) return std::move(*hist);
  return LogLinearHistogram{HistogramConfig{}};
}

std::size_t MetricRegistry::metric_count() const {
  std::scoped_lock lock(mutex_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

}  // namespace moongen::telemetry
