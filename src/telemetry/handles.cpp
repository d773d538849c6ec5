#include "telemetry/handles.hpp"

#include <stdexcept>

namespace moongen::telemetry {

CounterHandle MetricTree::counter(const std::string& name) {
  std::scoped_lock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<CounterSlot>();
  return CounterHandle{slot.get()};
}

GaugeHandle MetricTree::gauge(const std::string& name) {
  std::scoped_lock lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<GaugeSlot>();
  return GaugeHandle{slot.get()};
}

HistogramHandle MetricTree::histogram(const std::string& name, HistogramConfig config) {
  std::scoped_lock lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<LogLinearHistogram>(config);
  } else if (slot->config() != config) {
    throw std::invalid_argument("MetricTree: histogram '" + name +
                                "' re-registered with different geometry");
  }
  return HistogramHandle{slot.get()};
}

std::size_t MetricTree::slot_count() const {
  std::scoped_lock lock(mutex_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

void MetricTree::visit_counters(
    const std::function<void(const std::string&, std::uint64_t)>& fn) const {
  std::scoped_lock lock(mutex_);
  for (const auto& [name, slot] : counters_)
    fn(name, slot->value.load(std::memory_order_relaxed));
}

void MetricTree::visit_gauges(const std::function<void(const std::string&, double)>& fn) const {
  std::scoped_lock lock(mutex_);
  for (const auto& [name, slot] : gauges_) fn(name, slot->value.load(std::memory_order_relaxed));
}

void MetricTree::visit_histograms(
    const std::function<void(const std::string&, const LogLinearHistogram&)>& fn) const {
  std::scoped_lock lock(mutex_);
  for (const auto& [name, slot] : histograms_) fn(name, *slot);
}

}  // namespace moongen::telemetry
