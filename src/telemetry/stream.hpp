// TelemetryStream: push-based export without perturbing the run.
//
// A week-long soak cannot wait for an end-of-run snapshot, and polling the
// registry from another thread would race the shards. Instead the stream
// is ticked at quiesced window boundaries (the Testbed's telemetry window
// hook): every tick appends the snapshot taken there — stamped with
// virtual time — to the output file as one JSON line (write_json), followed
// by every RTT window the plane closed since the previous tick as one JSON
// line each (schema "moongen-rtt-window-v1"). Nothing is retained.
//
// Everything goes to the file, never stdout: an instrumented run's stdout
// stays byte-identical to an uninstrumented one, which is what the CI
// streaming-soak gate asserts.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>

#include "telemetry/registry.hpp"
#include "telemetry/rtt_plane.hpp"

namespace moongen::telemetry {

class TelemetryStream {
 public:
  /// Opens `path` for writing; throws std::runtime_error if the file cannot
  /// be opened.
  explicit TelemetryStream(const std::string& path);
  TelemetryStream(const TelemetryStream&) = delete;
  TelemetryStream& operator=(const TelemetryStream&) = delete;

  /// Also stream the plane's closed windows (one JSON line per window).
  void attach_rtt(const RttPlane* plane) { plane_ = plane; }

  /// Appends `snapshot` plus any newly closed RTT windows, then flushes.
  /// Must run at a quiesced instant.
  void tick(const Snapshot& snapshot);

  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
  [[nodiscard]] std::uint64_t windows_streamed() const { return windows_streamed_; }

 private:
  const RttPlane* plane_ = nullptr;
  std::ofstream out_;
  std::uint64_t ticks_ = 0;
  std::uint64_t windows_streamed_ = 0;
};

}  // namespace moongen::telemetry
