#include "telemetry/exporters.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace moongen::telemetry {

namespace {

constexpr double kQuantiles[] = {25.0, 50.0, 75.0, 90.0, 99.0, 99.9};
constexpr const char* kQuantileKeys[] = {"p25", "p50", "p75", "p90", "p99", "p999"};

void json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  os << buf;
}

void json_histogram(std::ostream& os, const LogLinearHistogram& h) {
  os << "{\"count\":" << h.total() << ",\"overflow\":" << h.overflow() << ",\"min\":" << h.min()
     << ",\"max\":" << h.max() << ",\"mean\":";
  json_number(os, h.mean());
  for (std::size_t q = 0; q < std::size(kQuantiles); ++q)
    os << ",\"" << kQuantileKeys[q] << "\":" << h.percentile(kQuantiles[q]);
  os << ",\"buckets\":[";
  bool first = true;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    if (h.bucket(i) == 0) continue;
    if (!first) os << ',';
    first = false;
    os << "{\"lower\":" << h.bucket_lower(i) << ",\"width\":" << h.bucket_width(i)
       << ",\"count\":" << h.bucket(i) << '}';
  }
  os << "]}";
}

}  // namespace

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_json(std::ostream& os, const Snapshot& snap) {
  os << "{\"schema\":\"moongen-telemetry-v1\",\"timestamp_ns\":" << snap.timestamp_ns;
  os << ",\"counters\":{";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    if (i > 0) os << ',';
    write_json_string(os, snap.counters[i].name);
    os << ':' << snap.counters[i].value;
  }
  os << "},\"gauges\":{";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    if (i > 0) os << ',';
    write_json_string(os, snap.gauges[i].name);
    os << ':';
    json_number(os, snap.gauges[i].value);
  }
  os << "},\"histograms\":{";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    if (i > 0) os << ',';
    write_json_string(os, snap.histograms[i].name);
    os << ':';
    json_histogram(os, snap.histograms[i].hist);
  }
  os << "}}";
}

void write_json_series(std::ostream& os, const std::vector<Snapshot>& series) {
  os << "{\"schema\":\"moongen-telemetry-series-v1\",\"snapshots\":[";
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (i > 0) os << ',';
    write_json(os, series[i]);
  }
  os << "]}";
}

bool dump_json_to_file(const std::string& path, const Snapshot& snap) {
  std::ofstream os(path);
  if (!os) return false;
  write_json(os, snap);
  os << '\n';
  return static_cast<bool>(os);
}

bool dump_json_series_to_file(const std::string& path, const std::vector<Snapshot>& series) {
  std::ofstream os(path);
  if (!os) return false;
  write_json_series(os, series);
  os << '\n';
  return static_cast<bool>(os);
}

}  // namespace moongen::telemetry
