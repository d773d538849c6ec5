#include "telemetry/stream.hpp"

#include <stdexcept>

#include "telemetry/exporters.hpp"

namespace moongen::telemetry {

TelemetryStream::TelemetryStream(const std::string& path)
    : out_(path, std::ios::out | std::ios::trunc) {
  if (!out_.is_open()) throw std::runtime_error("TelemetryStream: cannot open '" + path + "'");
}

void TelemetryStream::tick(const Snapshot& snapshot) {
  write_json(out_, snapshot);
  out_ << '\n';
  if (plane_ != nullptr) {
    // Closed windows are retained in a bounded deque; stream whatever is
    // still held of the ones closed since the last tick. Scenario::build
    // rejects tick periods longer than the retained span, so nothing is
    // evicted unseen.
    const std::uint64_t closed = plane_->windows_closed();
    const auto& retained = plane_->windows();
    std::uint64_t first_retained = plane_->windows_evicted();
    std::uint64_t from = windows_streamed_ < first_retained ? first_retained : windows_streamed_;
    for (std::uint64_t i = from; i < closed; ++i)
      RttPlane::write_window_json(out_, retained[static_cast<std::size_t>(i - first_retained)]);
    windows_streamed_ = closed;
  }
  out_.flush();
  ++ticks_;
}

}  // namespace moongen::telemetry
