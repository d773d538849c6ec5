#include "capture/pcap.hpp"

#include <bit>
#include <cstring>

namespace moongen::capture {

namespace {

constexpr std::uint32_t kMagicNs = 0xa1b23c4d;
constexpr std::uint32_t kMagicUs = 0xa1b2c3d4;
constexpr std::uint32_t kLinkTypeEthernet = 1;

struct [[gnu::packed]] GlobalHeader {
  std::uint32_t magic;
  std::uint16_t version_major;
  std::uint16_t version_minor;
  std::int32_t thiszone;
  std::uint32_t sigfigs;
  std::uint32_t snaplen;
  std::uint32_t network;
};
static_assert(sizeof(GlobalHeader) == 24);

struct [[gnu::packed]] RecordHeader {
  std::uint32_t ts_sec;
  std::uint32_t ts_frac;  // us or ns depending on magic
  std::uint32_t incl_len;
  std::uint32_t orig_len;
};
static_assert(sizeof(RecordHeader) == 16);

std::uint32_t byteswap(std::uint32_t v) {
  return (v >> 24) | ((v >> 8) & 0xff00) | ((v << 8) & 0xff0000) | (v << 24);
}

}  // namespace

// ---------------------------------------------------------------------------
// PcapWriter
// ---------------------------------------------------------------------------

PcapWriter::PcapWriter(const std::string& path, std::uint32_t snaplen)
    : out_(path, std::ios::binary | std::ios::trunc), snaplen_(snaplen) {
  const GlobalHeader hdr{kMagicNs, 2, 4, 0, 0, snaplen, kLinkTypeEthernet};
  out_.write(reinterpret_cast<const char*>(&hdr), sizeof(hdr));
}

PcapWriter::~PcapWriter() { out_.flush(); }

bool PcapWriter::write(std::span<const std::uint8_t> frame, std::uint64_t time_ns) {
  if (!out_.good()) {
    // Stream already failed (bad path, disk full earlier): refuse instead
    // of silently pretending the record landed.
    ++write_errors_;
    return false;
  }
  const auto incl = static_cast<std::uint32_t>(
      std::min<std::size_t>(frame.size(), snaplen_));
  const RecordHeader rec{static_cast<std::uint32_t>(time_ns / 1'000'000'000ull),
                         static_cast<std::uint32_t>(time_ns % 1'000'000'000ull), incl,
                         static_cast<std::uint32_t>(frame.size())};
  out_.write(reinterpret_cast<const char*>(&rec), sizeof(rec));
  out_.write(reinterpret_cast<const char*>(frame.data()), incl);
  if (!out_.good()) {
    // The record is truncated on disk; report it so the capture's consumer
    // knows the tail is not trustworthy.
    ++write_errors_;
    return false;
  }
  ++packets_;
  return true;
}

// ---------------------------------------------------------------------------
// PcapReader
// ---------------------------------------------------------------------------

PcapReader::PcapReader(const std::string& path) : in_(path, std::ios::binary) {
  GlobalHeader hdr{};
  if (!in_.read(reinterpret_cast<char*>(&hdr), sizeof(hdr))) return;
  switch (hdr.magic) {
    case kMagicNs:
      nanosecond_ = true;
      break;
    case kMagicUs:
      break;
    default:
      // Try the byte-swapped magics.
      if (byteswap(hdr.magic) == kMagicNs) {
        swapped_ = true;
        nanosecond_ = true;
      } else if (byteswap(hdr.magic) == kMagicUs) {
        swapped_ = true;
      } else {
        return;  // not a pcap file
      }
  }
  if (fix32(hdr.network) != kLinkTypeEthernet) return;
  valid_ = true;
}

std::uint32_t PcapReader::fix32(std::uint32_t v) const { return swapped_ ? byteswap(v) : v; }

std::optional<PcapRecord> PcapReader::next() {
  if (!valid_) return std::nullopt;
  RecordHeader rec{};
  if (!in_.read(reinterpret_cast<char*>(&rec), sizeof(rec))) return std::nullopt;
  const std::uint32_t incl = fix32(rec.incl_len);
  if (incl > 256 * 1024) return std::nullopt;  // corrupt record
  PcapRecord out;
  out.data.resize(incl);
  if (!in_.read(reinterpret_cast<char*>(out.data.data()), incl)) return std::nullopt;
  const std::uint64_t frac = fix32(rec.ts_frac);
  out.time_ns = static_cast<std::uint64_t>(fix32(rec.ts_sec)) * 1'000'000'000ull +
                (nanosecond_ ? frac : frac * 1'000ull);
  out.original_length = fix32(rec.orig_len);
  ++packets_;
  return out;
}

// ---------------------------------------------------------------------------
// Taps
// ---------------------------------------------------------------------------

TxTee::TxTee(nic::Port& port, PcapWriter& writer)
    : writer_(writer), downstream_(port.tx_sink()) {
  port.set_tx_sink(this);
}

void TxTee::on_frame(nic::Frame frame, sim::SimTime tx_start_ps) {
  writer_.write(frame, tx_start_ps);
  if (downstream_ != nullptr) downstream_->on_frame(std::move(frame), tx_start_ps);
}

void capture_rx(nic::Port& port, int queue, PcapWriter& writer) {
  port.rx_queue(queue).set_callback([&writer](const nic::RxQueueModel::Entry& entry) {
    writer.write(entry.frame, entry.complete_ps);
  });
}

std::vector<nic::Frame> load_frames(const std::string& path, std::size_t max_frames) {
  std::vector<nic::Frame> frames;
  PcapReader reader(path);
  while (frames.size() < max_frames) {
    auto rec = reader.next();
    if (!rec.has_value()) break;
    frames.push_back(nic::make_frame(std::move(rec->data)));
  }
  return frames;
}

}  // namespace moongen::capture
