#include "testbed/testbed.hpp"

#include <stdexcept>
#include <string>

namespace moongen::testbed {

nic::Port& Testbed::port(int id) {
  const auto it = devices_.find(id);
  if (it == devices_.end())
    throw std::out_of_range("Testbed::port: no device " + std::to_string(id));
  return *it->second.port;
}

nic::Port& Testbed::port(std::string_view name) {
  for (auto& [id, entry] : devices_) {
    if (entry.name == name) return *entry.port;
  }
  throw std::out_of_range("Testbed::port: no device named " + std::string(name));
}

wire::Link& Testbed::link(int from, int to) {
  for (auto& entry : links_) {
    if (entry.from == from && entry.to == to) return *entry.link;
  }
  throw std::out_of_range("Testbed::link: no link " + std::to_string(from) + " -> " +
                          std::to_string(to));
}

wire::Link& Testbed::link_at(std::size_t index) {
  if (index >= links_.size())
    throw std::out_of_range("Testbed::link_at: index out of range");
  return *links_[index].link;
}

std::pair<int, int> Testbed::link_ends(std::size_t index) const {
  if (index >= links_.size())
    throw std::out_of_range("Testbed::link_ends: index out of range");
  return {links_[index].from, links_[index].to};
}

std::vector<int> Testbed::device_ids() const {
  std::vector<int> ids;
  ids.reserve(devices_.size());
  for (const auto& [id, entry] : devices_) ids.push_back(id);
  return ids;
}

dut::Forwarder& Testbed::forwarder(std::size_t index) {
  if (index >= forwarders_.size())
    throw std::out_of_range("Testbed::forwarder: index out of range");
  return *forwarders_[index];
}

dut::VSwitch& Testbed::vswitch(std::size_t index) {
  if (index >= vswitches_.size())
    throw std::out_of_range("Testbed::vswitch: index out of range");
  return *vswitches_[index];
}

sim::EventQueue& Testbed::engine(int device_id) {
  return runtime_->shard(shard_of(device_id));
}

sim::EventQueue& Testbed::engine() {
  if (runtime_->shard_count() != 1)
    throw std::logic_error(
        "Testbed::engine(): testbed has multiple shards; use engine(device_id)");
  return runtime_->shard(0);
}

std::size_t Testbed::shard_of(int device_id) const {
  const auto it = devices_.find(device_id);
  if (it == devices_.end())
    throw std::out_of_range("Testbed::shard_of: no device " + std::to_string(device_id));
  return it->second.shard;
}

void Testbed::run_for(double seconds) {
  runtime_->run_until(now() + static_cast<sim::SimTime>(seconds * 1e12));
}

telemetry::Snapshot Testbed::snapshot() { return registry_.snapshot(now() / 1000); }

void Testbed::record(telemetry::Snapshot snap) {
  series_.push_back(std::move(snap));
  if (series_.size() > kSeriesCapacity) series_.pop_front();
}

void Testbed::telemetry_tick() {
  telemetry::Snapshot snap = snapshot();
  if (stream_ != nullptr) stream_->tick(snap);
  if (sampling_) record(std::move(snap));
}

telemetry::RttPlane& Testbed::rtt_plane() {
  if (rtt_plane_ == nullptr)
    throw std::logic_error("Testbed::rtt_plane: telemetry is disabled for this scenario");
  return *rtt_plane_;
}

fault::FaultPlane* Testbed::fault_plane(std::size_t shard) {
  if (shard >= planes_.size()) return nullptr;
  return planes_[shard].get();
}

std::uint64_t Testbed::fault_fires() const {
  std::uint64_t total = 0;
  for (const auto& plane : planes_) total += plane->total_fires();
  return total;
}

std::uint64_t Testbed::fault_fires_at(std::string_view site) const {
  std::uint64_t total = 0;
  for (const auto& plane : planes_) total += plane->fires_at(site);
  return total;
}

void Testbed::validate_fault_rules() {
  fault_rules_validated_ = true;
  if (planes_.empty()) return;
  // Every plane was built from the same spec copy, so rules come from
  // planes_[0]; probe sites are unioned across all shards' planes.
  for (const auto& rule : planes_[0]->spec().rules) {
    bool matched = false;
    for (const auto& plane : planes_) {
      for (const auto& req : plane->requested_sites()) {
        if (rule.matches(req.kind, req.name)) {
          matched = true;
          break;
        }
      }
      if (matched) break;
    }
    if (matched) continue;
    std::string msg = "Testbed::validate_fault_rules: rule '";
    msg += fault::to_string(rule.kind);
    msg += '@';
    msg += rule.site;
    msg += "' matches no probe site and can never fire. Sites probing ";
    msg += fault::to_string(rule.kind);
    msg += ':';
    bool any = false;
    for (const auto& plane : planes_) {
      for (const auto& req : plane->requested_sites()) {
        if (req.kind != rule.kind) continue;
        msg += any ? ", " : " ";
        msg += req.name;
        any = true;
      }
    }
    if (!any) msg += " (none)";
    throw std::invalid_argument(msg);
  }
}

core::Device& Testbed::fast_device(int id) {
  core::Device* dev = fast_devices_.find(id);
  if (dev == nullptr)
    throw std::out_of_range("Testbed::fast_device: no fast device " + std::to_string(id));
  return *dev;
}

}  // namespace moongen::testbed
