#include "telemetry/registry.hpp"

#include <stdexcept>

namespace moongen::telemetry {

// --- Binding ----------------------------------------------------------------

Binding& Binding::operator=(Binding&& other) noexcept {
  if (this != &other) {
    release();
    books_ = std::exchange(other.books_, {});
    id_ = other.id_;
  }
  return *this;
}

void Binding::open(MetricRegistry& registry) {
  if (bound()) throw std::logic_error("telemetry::Binding: component is already bound");
  {
    std::scoped_lock lock(registry.books_->mutex);
    id_ = registry.books_->next_id++;
  }
  books_ = registry.books_;
}

std::shared_ptr<MetricRegistry::Books> Binding::books(const std::string& name) const {
  auto books = books_.lock();
  if (books == nullptr)
    throw std::logic_error("telemetry::Binding: reader '" + name + "' without an open registry");
  return books;
}

void Binding::counter(const std::string& name, std::function<std::uint64_t()> read) {
  const auto books = this->books(name);
  std::scoped_lock lock(books->mutex);
  books->counters[name].live.emplace_back(id_, std::move(read));
}

void Binding::gauge(const std::string& name, std::function<double()> read) {
  const auto books = this->books(name);
  std::scoped_lock lock(books->mutex);
  auto& metric = books->gauges[name];
  if (!metric.live.empty())
    throw std::invalid_argument("MetricRegistry: gauge '" + name + "' already has a reader");
  metric.live.emplace_back(id_, std::move(read));
}

void Binding::histogram(const std::string& name, std::function<LogLinearHistogram()> read) {
  const auto books = this->books(name);
  const HistogramConfig config = read().config();
  std::scoped_lock lock(books->mutex);
  auto& metric = books->histograms[name];
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
  if (const auto books = std::exchange(books_, {}).lock()) books->release(id_);
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

void MetricRegistry::Books::release(std::uint64_t id) {
  std::scoped_lock lock(mutex);
  retire(counters, id);
  retire(gauges, id);
  retire(histograms, id);
}

void MetricRegistry::add_counter(const std::string& name, std::uint64_t n) {
  std::scoped_lock lock(books_->mutex);
  fold(books_->counters[name].fixed, n);
}

void MetricRegistry::set_gauge(const std::string& name, double value) {
  std::scoped_lock lock(books_->mutex);
  auto& metric = books_->gauges[name];
  if (!metric.live.empty())
    throw std::invalid_argument("MetricRegistry: gauge '" + name + "' has a reader");
  metric.fixed = value;
}

Snapshot MetricRegistry::snapshot(std::uint64_t timestamp_ns) const {
  Snapshot snap;
  snap.timestamp_ns = timestamp_ns;
  // Readers run under the lock, so no Binding can retire one mid-call.
  const Books& b = *books_;
  std::scoped_lock lock(b.mutex);
  snap.counters.reserve(b.counters.size());
  for (const auto& [name, metric] : b.counters)
    snap.counters.push_back({name, read(metric).value_or(0)});
  snap.gauges.reserve(b.gauges.size());
  for (const auto& [name, metric] : b.gauges)
    snap.gauges.push_back({name, read(metric).value_or(0.0)});
  snap.histograms.reserve(b.histograms.size());
  for (const auto& [name, metric] : b.histograms)
    if (auto hist = read(metric); hist.has_value())
      snap.histograms.push_back({name, std::move(*hist)});
  return snap;
}

std::uint64_t MetricRegistry::counter_value(const std::string& name) const {
  std::scoped_lock lock(books_->mutex);
  const auto it = books_->counters.find(name);
  return it == books_->counters.end() ? 0 : read(it->second).value_or(0);
}

double MetricRegistry::gauge_value(const std::string& name) const {
  std::scoped_lock lock(books_->mutex);
  const auto it = books_->gauges.find(name);
  return it == books_->gauges.end() ? 0.0 : read(it->second).value_or(0.0);
}

LogLinearHistogram MetricRegistry::histogram_merged(const std::string& name) const {
  std::scoped_lock lock(books_->mutex);
  const auto it = books_->histograms.find(name);
  if (it != books_->histograms.end())
    if (auto hist = read(it->second); hist.has_value()) return std::move(*hist);
  return LogLinearHistogram{HistogramConfig{}};
}

std::size_t MetricRegistry::metric_count() const {
  std::scoped_lock lock(books_->mutex);
  return books_->counters.size() + books_->gauges.size() + books_->histograms.size();
}

}  // namespace moongen::telemetry
