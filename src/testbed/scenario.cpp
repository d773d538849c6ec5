#include "testbed/scenario.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/task.hpp"
#include "stats/samplers.hpp"

namespace moongen::testbed {

namespace {

// Minimal union-find over device indices (a scenario has a handful of
// devices; path compression alone is plenty).
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void merge(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

// --- fluent setters ---------------------------------------------------------

Scenario& Scenario::seed(std::uint64_t s) {
  seed_ = s;
  return *this;
}

Scenario& Scenario::shards(int n) {
  shards_ = std::max(1, n);
  return *this;
}

Scenario& Scenario::faults(fault::FaultSpec spec) {
  fault_spec_ = std::move(spec);
  return *this;
}

Scenario& Scenario::faults(std::string_view text) {
  return faults(fault::FaultSpec::parse(text));
}

Scenario& Scenario::telemetry(bool enabled) {
  telemetry_enabled_ = enabled;
  return *this;
}

Scenario& Scenario::rtt_groups(std::uint32_t n) {
  if (n == 0) throw std::invalid_argument("Scenario::rtt_groups: need at least one group");
  rtt_groups_ = n;
  return *this;
}

Scenario& Scenario::rtt_window_ns(std::uint64_t ns) {
  if (ns == 0) throw std::invalid_argument("Scenario::rtt_window_ns: zero window");
  if (ns > UINT64_MAX / 1'000)
    throw std::invalid_argument("Scenario::rtt_window_ns: window of " + std::to_string(ns) +
                                " ns overflows picoseconds");
  rtt_window_ps_ = ns * 1'000;
  return *this;
}

Scenario& Scenario::sample_telemetry(std::uint64_t period_ns) {
  if (period_ns == 0) throw std::invalid_argument("Scenario::sample_telemetry: zero period");
  sample_period_ns_ = period_ns;
  return *this;
}

Scenario& Scenario::stream_telemetry(std::string path, std::uint64_t period_ns) {
  if (path.empty()) throw std::invalid_argument("Scenario::stream_telemetry: empty path");
  if (period_ns == 0) throw std::invalid_argument("Scenario::stream_telemetry: zero period");
  stream_path_ = std::move(path);
  stream_period_ns_ = period_ns;
  return *this;
}

Scenario::DeviceDecl& Scenario::cur_device() {
  if (cursor_ != Cursor::kDevice || devices_.empty())
    throw std::logic_error("Scenario: device modifier without a preceding device()");
  return devices_.back();
}

Scenario::LinkDecl& Scenario::cur_link() {
  if (cursor_ != Cursor::kLink || links_.empty())
    throw std::logic_error("Scenario: link modifier without a preceding link()");
  return links_.back();
}

Scenario& Scenario::device(int id, nic::ChipSpec chip) {
  if (id < 0) throw std::invalid_argument("Scenario::device: negative id");
  for (const auto& d : devices_) {
    if (d.id == id)
      throw std::invalid_argument("Scenario::device: duplicate id " + std::to_string(id));
  }
  DeviceDecl decl;
  decl.id = id;
  decl.chip = std::move(chip);
  decl.name = "dev" + std::to_string(id);
  devices_.push_back(std::move(decl));
  cursor_ = Cursor::kDevice;
  return *this;
}

Scenario& Scenario::name(std::string device_name) {
  cur_device().name = std::move(device_name);
  return *this;
}

Scenario& Scenario::link_mbit(std::uint64_t mbit) {
  cur_device().link_mbit = mbit;
  return *this;
}

Scenario& Scenario::rx_store(bool store) {
  cur_device().rx_store = store;
  return *this;
}

Scenario& Scenario::rtt_record(bool record) {
  cur_device().rtt_record = record;
  return *this;
}

Scenario& Scenario::link(int from, int to) {
  if (from == to) throw std::invalid_argument("Scenario::link: from == to");
  LinkDecl decl;
  decl.from = from;
  decl.to = to;
  links_.push_back(decl);
  cursor_ = Cursor::kLink;
  return *this;
}

Scenario& Scenario::cable(wire::CableSpec c) {
  cur_link().cable = c;
  return *this;
}

Scenario& Scenario::latency_ns(double ns) {
  if (ns < 0) throw std::invalid_argument("Scenario::latency_ns: negative latency");
  cur_link().cable =
      wire::CableSpec{0.0, 0.72, static_cast<sim::SimTime>(ns * 1e3), wire::PhyJitter::kNone};
  return *this;
}

Scenario& Scenario::duplex() {
  cur_link().duplex = true;
  return *this;
}

Scenario& Scenario::with_seed(std::uint64_t s) {
  switch (cursor_) {
    case Cursor::kDevice:
      cur_device().seed = s;
      return *this;
    case Cursor::kLink:
      cur_link().seed = s;
      return *this;
    case Cursor::kNone:
      break;
  }
  throw std::logic_error("Scenario::with_seed: no preceding device() or link()");
}

Scenario& Scenario::couple(int a, int b) {
  if (a == b) throw std::invalid_argument("Scenario::couple: a == b");
  couples_.push_back(CoupleDecl{a, b});
  cursor_ = Cursor::kNone;
  return *this;
}

Scenario& Scenario::forwarder(int in_device, int out_device, dut::ForwarderConfig cfg) {
  if (in_device == out_device)
    throw std::invalid_argument("Scenario::forwarder: in == out");
  forwarders_.push_back(ForwarderDecl{in_device, out_device, cfg});
  cursor_ = Cursor::kNone;
  return *this;
}

Scenario& Scenario::vswitch(int in_device, std::vector<int> out_devices,
                            dut::VSwitchConfig cfg) {
  if (out_devices.empty())
    throw std::invalid_argument("Scenario::vswitch: need at least one vport");
  for (const int out : out_devices) {
    if (out == in_device) throw std::invalid_argument("Scenario::vswitch: in == out");
  }
  vswitches_.push_back(VSwitchDecl{in_device, std::move(out_devices), std::move(cfg)});
  cursor_ = Cursor::kNone;
  return *this;
}

std::size_t Scenario::device_index(int id, const char* what) const {
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (devices_[i].id == id) return i;
  }
  throw std::invalid_argument(std::string("Scenario: ") + what + " references undeclared device " +
                              std::to_string(id));
}

// --- build ------------------------------------------------------------------

std::uint64_t Scenario::telemetry_period_ps() const {
  const std::uint64_t period_ns = sample_period_ns_ != 0 ? sample_period_ns_ : stream_period_ns_;
  if (period_ns == 0) return 0;
  if (sample_period_ns_ != 0 && !stream_path_.empty() && stream_period_ns_ != sample_period_ns_)
    throw std::invalid_argument(
        "Scenario: sample_telemetry and stream_telemetry declare different periods (" +
        std::to_string(sample_period_ns_) + " vs " + std::to_string(stream_period_ns_) +
        " ns); both ride one snapshot per tick");
  if (period_ns > UINT64_MAX / 1'000)
    throw std::invalid_argument("Scenario: telemetry period of " + std::to_string(period_ns) +
                                " ns overflows picoseconds");
  const std::uint64_t period_ps = period_ns * 1'000;
  // The stream catches up on the RTT windows closed since its last tick
  // from the plane's bounded deque; a longer tick would lose some unseen.
  // (period_ps - 1) / max >= window  <=>  period_ps > max * window, with
  // no overflow on the right-hand side.
  constexpr std::uint64_t kept_windows = telemetry::RttPlaneConfig::kMaxWindows;
  if (!stream_path_.empty() && (period_ps - 1) / kept_windows >= rtt_window_ps_)
    throw std::invalid_argument(
        "Scenario::stream_telemetry: period of " + std::to_string(period_ns) +
        " ns exceeds the " + std::to_string(kept_windows) + " RTT windows of " +
        std::to_string(rtt_window_ps_ / 1'000) + " ns the plane retains between ticks");
  return period_ps;
}

std::unique_ptr<Testbed> Scenario::build() {
  const std::uint64_t snapshot_period_ps = telemetry_period_ps();

  // 1. Partition devices into components that share one event engine:
  // couple(), forwarder() and vswitch() join the devices they name, and
  // every link joins its two ends.
  UnionFind uf(devices_.size());
  for (const auto& c : couples_)
    uf.merge(device_index(c.a, "couple"), device_index(c.b, "couple"));
  for (const auto& f : forwarders_)
    uf.merge(device_index(f.in, "forwarder"), device_index(f.out, "forwarder"));
  for (const auto& v : vswitches_) {
    for (const int out : v.outs)
      uf.merge(device_index(v.in, "vswitch"), device_index(out, "vswitch"));
  }
  for (const auto& l : links_) uf.merge(device_index(l.from, "link"), device_index(l.to, "link"));

  // Components ordered by their smallest device id: shard assignment must
  // not depend on declaration order subtleties.
  std::map<std::size_t, std::vector<std::size_t>> groups;  // root -> members
  for (std::size_t i = 0; i < devices_.size(); ++i) groups[uf.find(i)].push_back(i);
  std::vector<std::vector<std::size_t>> ordered;
  ordered.reserve(groups.size());
  for (auto& [root, members] : groups) ordered.push_back(std::move(members));
  std::sort(ordered.begin(), ordered.end(), [this](const auto& a, const auto& b) {
    const auto min_id = [this](const std::vector<std::size_t>& g) {
      int m = devices_[g.front()].id;
      for (const std::size_t i : g) m = std::min(m, devices_[i].id);
      return m;
    };
    return min_id(a) < min_id(b);
  });

  // 2. Effective shard count: never more shards than components (and at
  // least one engine even for a testbed without devices).
  const std::size_t effective =
      std::max<std::size_t>(1, std::min<std::size_t>(static_cast<std::size_t>(shards_),
                                                     std::max<std::size_t>(1, ordered.size())));

  // 3. Place the components on shards round-robin, in that order.
  std::vector<std::size_t> shard_of(devices_.size(), 0);
  for (std::size_t c = 0; c < ordered.size(); ++c)
    for (const std::size_t i : ordered[c]) shard_of[i] = c % effective;

  auto tb = std::unique_ptr<Testbed>(new Testbed());

  // 4. Runtime + executor. Shard workers run as core::TaskSet tasks, so
  // they get the same core pinning as MoonGen slave tasks.
  tb->runtime_ = std::make_unique<sim::ParallelRuntime>(effective);
  if (effective > 1) {
    tb->runtime_->set_executor([](std::vector<sim::ParallelRuntime::Work>& work) {
      core::TaskSet tasks;
      for (std::size_t i = 0; i < work.size(); ++i)
        tasks.launch("shard" + std::to_string(i), work[i]);
      tasks.wait();
    });
  }

  // 5. Fault planes. One plane per shard: a site's fault events must run
  // on the engine of the shard that owns the component.
  if (!fault_spec_.empty()) {
    for (std::size_t k = 0; k < effective; ++k)
      tb->planes_.push_back(
          std::make_unique<fault::FaultPlane>(fault_spec_, &tb->runtime_->shard(k)));
  }

  // 6. Ports, in id order (construction order is part of the determinism
  // contract: it fixes event sequence numbers at time zero).
  std::vector<std::size_t> by_id(devices_.size());
  for (std::size_t i = 0; i < by_id.size(); ++i) by_id[i] = i;
  std::sort(by_id.begin(), by_id.end(),
            [this](std::size_t a, std::size_t b) { return devices_[a].id < devices_[b].id; });
  for (const std::size_t i : by_id) {
    const DeviceDecl& d = devices_[i];
    // Undeclared seeds derive from (base seed, device id), so unrelated
    // entities never share an RNG stream by accident; links likewise.
    const auto id = static_cast<std::uint64_t>(d.id);
    const std::uint64_t port_seed =
        d.seed ? *d.seed : stats::splitmix64(seed_ + stats::kSplitMix64Gamma * id);
    Testbed::DeviceEntry entry;
    entry.name = d.name;
    entry.shard = shard_of[i];
    entry.port = std::make_unique<nic::Port>(tb->runtime_->shard(shard_of[i]), d.chip,
                                             d.link_mbit, port_seed);
    if (!d.rx_store) entry.port->rx_queue(0).set_store(false);
    tb->devices_.emplace(d.id, std::move(entry));
  }

  // 7. Links, in declaration order (duplex expands in place). A link's two
  // ends are one component, so the link runs on one engine.
  std::vector<LinkDecl> expanded;
  for (const LinkDecl& l : links_) {
    expanded.push_back(l);
    if (l.duplex) {
      LinkDecl rev = l;
      std::swap(rev.from, rev.to);
      rev.duplex = false;
      if (l.seed) rev.seed = *l.seed + 1;
      expanded.push_back(rev);
    }
  }
  for (std::size_t li = 0; li < expanded.size(); ++li) {
    const LinkDecl& l = expanded[li];
    const std::uint64_t wire_base = seed_ ^ 0x77697265ull;
    const std::uint64_t link_seed =
        l.seed ? *l.seed : stats::splitmix64(wire_base + stats::kSplitMix64Gamma * li);
    Testbed::LinkEntry entry;
    entry.from = l.from;
    entry.to = l.to;
    entry.link = std::make_unique<wire::Link>(tb->port(l.from), tb->port(l.to), l.cable,
                                              link_seed);
    tb->links_.push_back(std::move(entry));
  }

  // 8. Forwarders and vswitches, in declaration order.
  for (const ForwarderDecl& f : forwarders_) {
    const std::size_t shard = shard_of[device_index(f.in, "forwarder")];
    tb->forwarders_.push_back(std::make_unique<dut::Forwarder>(
        tb->runtime_->shard(shard), tb->port(f.in), 0, tb->port(f.out), 0, f.cfg));
  }
  for (const VSwitchDecl& v : vswitches_) {
    const std::size_t shard = shard_of[device_index(v.in, "vswitch")];
    std::vector<nic::Port*> vports;
    vports.reserve(v.outs.size());
    for (const int out : v.outs) vports.push_back(&tb->port(out));
    tb->vswitches_.push_back(std::make_unique<dut::VSwitch>(
        tb->runtime_->shard(shard), tb->port(v.in), 0, std::move(vports), v.cfg));
  }

  // 9. Fault installation, with the site names the hand-wired examples
  // used (wire.l1 is the first declared link; sites materialize only where
  // a rule matches, so blanket installation costs nothing).
  if (!tb->planes_.empty()) {
    for (std::size_t li = 0; li < expanded.size(); ++li) {
      const std::size_t shard = shard_of[device_index(expanded[li].from, "link")];
      tb->links_[li].link->install_faults(*tb->planes_[shard],
                                          "wire.l" + std::to_string(li + 1));
    }
    for (auto& [id, entry] : tb->devices_) {
      fault::FaultPlane& plane = *tb->planes_[entry.shard];
      entry.port->install_faults(plane, "nic." + entry.name);
      plane.arm_clock_faults(entry.port->ptp_clock(), "clock." + entry.name);
    }
    for (std::size_t fi = 0; fi < forwarders_.size(); ++fi) {
      const std::size_t shard = shard_of[device_index(forwarders_[fi].in, "forwarder")];
      const std::string site = fi == 0 ? "dut.fwd" : "dut.fwd" + std::to_string(fi + 1);
      tb->forwarders_[fi]->install_faults(*tb->planes_[shard], site);
    }
    for (std::size_t vi = 0; vi < vswitches_.size(); ++vi) {
      const std::size_t shard = shard_of[device_index(vswitches_[vi].in, "vswitch")];
      const std::string site = vi == 0 ? "vswitch" : "vswitch" + std::to_string(vi + 1);
      tb->vswitches_[vi]->install_faults(*tb->planes_[shard], site);
    }
  }

  // 10. Telemetry: same metric names as the hand-wired examples on one
  // shard; engines gain a .shard<k> suffix when there are several. Every
  // component registers readers of its own counters; snapshots read them
  // at quiesced instants, and the shards' fault planes sum per name.
  if (telemetry_enabled_) {
    for (auto& plane : tb->planes_) plane->bind_telemetry(tb->registry_);
    for (std::size_t k = 0; k < effective; ++k) {
      const std::string prefix =
          effective == 1 ? "engine" : "engine.shard" + std::to_string(k);
      tb->runtime_->shard(k).bind_telemetry(tb->registry_, prefix);
    }
    for (auto& [id, entry] : tb->devices_)
      entry.port->bind_telemetry(tb->registry_, "port." + entry.name);
    for (std::size_t vi = 0; vi < vswitches_.size(); ++vi) {
      const std::string stem = vi == 0 ? "vswitch" : "vswitch" + std::to_string(vi + 1);
      tb->vswitches_[vi]->bind_telemetry(tb->registry_, stem);
    }

    // 10b. The always-on RTT plane: one single-writer shard slice per
    // simulation shard; every port stamps departures and accounts
    // receptions/drops, links account wire losses on the *source* port's
    // shard (on_frame runs there). DuTs keep no stamp books: their ingress
    // port ends a stamp, and re-transmitting the frame starts a new one, so
    // a frame a vswitch drops in between is already accounted for. Windows
    // close via a runtime window hook — before the telemetry hook and any
    // same-instant globals, so snapshots see freshly closed windows.
    telemetry::RttPlaneConfig rtt_cfg;
    rtt_cfg.flow_groups = rtt_groups_;
    rtt_cfg.window_ps = rtt_window_ps_;
    tb->rtt_plane_ = std::make_unique<telemetry::RttPlane>(rtt_cfg, effective);
    telemetry::RttPlane* plane = tb->rtt_plane_.get();
    for (auto& [id, entry] : tb->devices_) {
      const std::size_t di = device_index(id, "rtt");
      entry.port->attach_rtt(&plane->shard(entry.shard), devices_[di].rtt_record);
    }
    for (std::size_t li = 0; li < expanded.size(); ++li) {
      const std::size_t from_shard = shard_of[device_index(expanded[li].from, "link")];
      tb->links_[li].link->attach_rtt(&plane->shard(from_shard));
    }
    plane->bind_telemetry(tb->registry_);
    tb->runtime_->add_window_hook(rtt_window_ps_,
                                  [plane](sim::SimTime t) { plane->close_window(t); });

    // 10c. Periodic snapshots: one window hook, one snapshot per tick,
    // handed to the in-memory series and the file stream alike (stdout
    // stays byte-identical with either on or off). Registered after the
    // RTT hook, so a tick sees the window that closed at the same instant.
    if (snapshot_period_ps != 0) {
      if (!stream_path_.empty()) {
        tb->stream_ = std::make_unique<telemetry::TelemetryStream>(stream_path_);
        tb->stream_->attach_rtt(plane);
      }
      Testbed* raw = tb.get();
      if (sample_period_ns_ != 0) {
        tb->sampling_ = true;
        // The series opens at the first run instant, after that instant's
        // events, like every later tick.
        tb->schedule_global(tb->now(), [raw] { raw->record(raw->snapshot()); });
      }
      tb->runtime_->add_window_hook(snapshot_period_ps,
                                    [raw](sim::SimTime) { raw->telemetry_tick(); });
    }
  }

  return tb;
}

}  // namespace moongen::testbed
