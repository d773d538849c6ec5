// Pcap capture: classic libpcap file format, writer and reader.
//
// MoonGen can capture traffic for offline analysis ("analyzing traffic in
// line rate", Section 10); this module provides the equivalent facility:
// frames from the simulation or the fast path are written as standard
// nanosecond-resolution pcap files readable by tcpdump/wireshark, and pcap
// files can be replayed into the generators.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "nic/frame.hpp"
#include "nic/port.hpp"
#include "sim/time.hpp"

namespace moongen::capture {

/// Writes nanosecond-resolution pcap (magic 0xa1b23c4d, LINKTYPE_ETHERNET).
class PcapWriter {
 public:
  explicit PcapWriter(const std::string& path, std::uint32_t snaplen = 65'535);
  ~PcapWriter();

  PcapWriter(const PcapWriter&) = delete;
  PcapWriter& operator=(const PcapWriter&) = delete;

  /// Appends one frame with the given capture time. Returns false if the
  /// record could not be (fully) written — disk full, closed file, earlier
  /// stream error. Failed records are counted in write_errors() and NOT in
  /// packets_written(): a fault-run capture must not silently lose frames.
  bool write(std::span<const std::uint8_t> frame, std::uint64_t time_ns);

  /// Convenience for simulated frames (FCS is not part of the capture, as
  /// with real NIC captures).
  bool write(const nic::Frame& frame, sim::SimTime time_ps) {
    return write({frame.data->data(), frame.data->size()}, time_ps / sim::kPsPerNs);
  }

  /// Flushes buffered records; false if the underlying stream is in error.
  bool flush() {
    out_.flush();
    return out_.good();
  }
  [[nodiscard]] std::uint64_t packets_written() const { return packets_; }
  /// Records that failed to write (truncated or refused by the stream).
  [[nodiscard]] std::uint64_t write_errors() const { return write_errors_; }
  [[nodiscard]] bool ok() const { return out_.good(); }

 private:
  std::ofstream out_;
  std::uint32_t snaplen_;
  std::uint64_t packets_ = 0;
  std::uint64_t write_errors_ = 0;
};

struct PcapRecord {
  std::uint64_t time_ns = 0;
  std::uint32_t original_length = 0;  ///< wire length (may exceed captured)
  std::vector<std::uint8_t> data;
};

/// Reads both microsecond- (0xa1b2c3d4) and nanosecond- (0xa1b23c4d)
/// resolution pcap files, either byte order.
class PcapReader {
 public:
  explicit PcapReader(const std::string& path);

  /// True if the global header parsed as a pcap file.
  [[nodiscard]] bool valid() const { return valid_; }

  /// Next record; nullopt at end of file or on a truncated record.
  std::optional<PcapRecord> next();

  [[nodiscard]] std::uint64_t packets_read() const { return packets_; }

 private:
  [[nodiscard]] std::uint32_t fix32(std::uint32_t v) const;

  std::ifstream in_;
  bool valid_ = false;
  bool swapped_ = false;
  bool nanosecond_ = false;
  std::uint64_t packets_ = 0;
};

/// TX tap: captures every frame a port transmits, then forwards it to the
/// downstream sink (the link). Insert between port and link:
///   wire::Link link(a, b, cable, seed);   // link registers itself on a
///   capture::TxTee tee(a, writer);        // tee takes over, wraps link
class TxTee : public nic::FrameSink {
 public:
  /// Wraps `port`'s current TX sink.
  TxTee(nic::Port& port, PcapWriter& writer);

  void on_frame(nic::Frame frame, sim::SimTime tx_start_ps) override;
  [[nodiscard]] sim::SimTime min_delay_ps() const override {
    return downstream_ != nullptr ? downstream_->min_delay_ps() : 0;
  }

 private:
  PcapWriter& writer_;
  nic::FrameSink* downstream_;
};

/// RX capture: writes every frame placed into (`port`, `queue`) to the
/// writer. Occupies the queue's callback slot.
void capture_rx(nic::Port& port, int queue, PcapWriter& writer);

/// Loads up to `max_frames` Ethernet frames from a pcap file as simulation
/// frames (for replay through a generator).
std::vector<nic::Frame> load_frames(const std::string& path, std::size_t max_frames = SIZE_MAX);

}  // namespace moongen::capture
