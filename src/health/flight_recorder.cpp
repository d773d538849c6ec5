#include "health/flight_recorder.hpp"

#include <ostream>

#include "health/health.hpp"
#include "telemetry/exporters.hpp"

namespace moongen::health {

void FlightRecorder::Ring::push(sim::SimTime t, std::uint64_t seq, std::uint32_t meta) {
  const std::uint64_t h = head.load(std::memory_order_relaxed);
  Slot& s = slots[h & mask];
  s.time_ps.store(t, std::memory_order_relaxed);
  s.seq.store(seq, std::memory_order_relaxed);
  s.meta.store(meta, std::memory_order_relaxed);
  // Release: a reader that observes head > h sees slot h's fields.
  head.store(h + 1, std::memory_order_release);
}

FlightRecorder::FlightRecorder(std::size_t shards, std::size_t capacity) {
  std::size_t cap = 1;
  while (cap < capacity) cap <<= 1;
  shards_ = std::vector<Ring>(shards);
  for (auto& ring : shards_) {
    ring.slots = std::make_unique<Slot[]>(cap);
    ring.mask = cap - 1;
    sinks_.push_back(std::make_unique<ShardSink>(ring));
  }
  site_names_.push_back("?");
}

sim::EventTraceSink* FlightRecorder::sink(std::size_t shard) { return sinks_.at(shard).get(); }

void FlightRecorder::intern_site(const std::string& site) {
  if (site_ids_.count(site) != 0) return;
  const auto id = static_cast<std::uint32_t>(site_names_.size());
  site_names_.push_back(site);
  site_ids_.emplace(site, id);
}

void FlightRecorder::record_fault(std::size_t shard, const std::string& site,
                                  fault::FaultKind kind, sim::SimTime now_ps) {
  const auto it = site_ids_.find(site);
  const std::uint32_t site_id = it != site_ids_.end() ? it->second : 0;
  const std::uint32_t meta =
      (static_cast<std::uint32_t>(EntryKind::kFaultFire) << 24) | (site_id & 0xffffffu);
  shards_.at(shard).push(now_ps, static_cast<std::uint64_t>(kind), meta);
}

std::vector<FlightRecorder::Entry> FlightRecorder::snapshot(std::size_t shard) const {
  const Ring& ring = shards_.at(shard);
  const std::uint64_t h = ring.head.load(std::memory_order_acquire);
  const std::uint64_t cap = ring.mask + 1;
  const std::uint64_t n = h < cap ? h : cap;
  std::vector<Entry> out;
  out.reserve(n);
  for (std::uint64_t i = h - n; i < h; ++i) {
    const Slot& s = ring.slots[i & ring.mask];
    Entry e;
    e.time_ps = s.time_ps.load(std::memory_order_relaxed);
    e.seq = s.seq.load(std::memory_order_relaxed);
    const std::uint32_t meta = s.meta.load(std::memory_order_relaxed);
    e.kind = static_cast<EntryKind>(meta >> 24);
    e.site_id = meta & 0xffffffu;
    out.push_back(e);
  }
  return out;
}

std::uint64_t FlightRecorder::recorded(std::size_t shard) const {
  return shards_.at(shard).head.load(std::memory_order_acquire);
}

const std::string& FlightRecorder::site_name(std::uint32_t id) const {
  return id < site_names_.size() ? site_names_[id] : site_names_[0];
}

void FlightRecorder::dump_json(std::ostream& os, const std::string& reason,
                               const std::vector<Violation>& violations,
                               const std::vector<std::uint64_t>& heartbeats,
                               const telemetry::Snapshot* snapshot) const {
  os << "{\n  \"schema\": \"moongen-flight-recorder-v1\",\n  \"reason\": ";
  telemetry::write_json_string(os, reason);
  os << ",\n  \"violations\": [";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"checker\": ";
    telemetry::write_json_string(os, v.checker);
    os << ", \"when_ps\": " << v.when_ps << ", \"detail\": ";
    telemetry::write_json_string(os, v.detail);
    os << "}";
  }
  os << (violations.empty() ? "]" : "\n  ]") << ",\n  \"shards\": [";
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    os << (s == 0 ? "\n" : ",\n") << "    {\"shard\": " << s << ", \"heartbeat\": "
       << (s < heartbeats.size() ? heartbeats[s] : 0) << ", \"recorded\": " << recorded(s)
       << ", \"events\": [";
    const auto entries = this->snapshot(s);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const Entry& e = entries[i];
      os << (i == 0 ? "\n" : ",\n") << "      {\"time_ps\": " << e.time_ps;
      if (e.kind == EntryKind::kFaultFire) {
        os << ", \"kind\": \"fault\", \"fault\": \""
           << fault::to_string(static_cast<fault::FaultKind>(e.seq)) << "\", \"site\": ";
        telemetry::write_json_string(os, site_name(e.site_id));
        os << "}";
      } else {
        os << ", \"kind\": \"event\", \"seq\": " << e.seq << "}";
      }
    }
    os << (entries.empty() ? "]}" : "\n    ]}");
  }
  os << (shards_.empty() ? "]" : "\n  ]");
  if (snapshot != nullptr) {
    os << ",\n  \"telemetry\": ";
    telemetry::write_json(os, *snapshot);
  }
  os << "\n}\n";
}

}  // namespace moongen::health
