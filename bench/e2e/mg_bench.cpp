// mg_bench: one end-to-end benchmark operation.
//
//   mg_bench <workload> [--shards N] [--seed N] [--scale X] [--trace]
//            [--without stream|health] [--out DIR]
//
// Builds one workload in-process through the public testbed::Scenario and
// script APIs, times the calls into them from outside (set-up, then the
// measured run), checks the simulated results, and prints one JSON object
// on stdout. One process is one benchmark operation; run.py starts many per
// measurement. See README.md for the workloads and metrics.
//
// Correctness gate: every simulated workload hashes a report of virtual-time
// values only (FNV-1a), so the digest must match across rounds and across
// shard counts, and the run's conservation identities are checked exactly.
// The exit code is 1 when any check fails.
//
// With --trace the run also records, from outside the program:
//   * per-event TSC deltas on every shard (an EventTraceSink that chains to
//     any sink already installed, one histogram per shard);
//   * 1000 slices of the run on a window hook, each with per-shard busy time
//     and executed events;
//   * per-shard worker wall time through an executor wrapping core::TaskSet;
//   * at 1 shard, probe loops over single layers (proto, membuf, rpc,
//     telemetry) and, for script_fastpath, the hand-written floor loop.
// A traced run changes no simulated result, but slices add window
// boundaries, so run.py takes counts from untraced runs only.
#include <sys/resource.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/device.hpp"
#include "core/field_modifier.hpp"
#include "core/rate_control.hpp"
#include "core/task.hpp"
#include "core/timestamper.hpp"
#include "dut/vswitch.hpp"
#include "health/monitor.hpp"
#include "membuf/buf_array.hpp"
#include "membuf/mempool.hpp"
#include "nic/chip.hpp"
#include "proto/packet_view.hpp"
#include "rpc/codec.hpp"
#include "rpc/inflight.hpp"
#include "rpc/latency_recorder.hpp"
#include "rpc/open_loop.hpp"
#include "rpc/server_model.hpp"
#include "script/bindings.hpp"
#include "sim/event_queue.hpp"
#include "telemetry/log_linear_histogram.hpp"
#include "telemetry/rtt_plane.hpp"
#include "testbed/scenario.hpp"

namespace mc = moongen::core;
namespace md = moongen::dut;
namespace mh = moongen::health;
namespace mb = moongen::membuf;
namespace mn = moongen::nic;
namespace mp = moongen::proto;
namespace mr = moongen::rpc;
namespace ms = moongen::sim;
namespace msc = moongen::script;
namespace mt = moongen::telemetry;
namespace mtb = moongen::testbed;

namespace {

// --- clocks and process counters ---------------------------------------------

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

std::uint64_t tsc() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return wall_ns();
#endif
}

/// User + system CPU seconds of the whole process (all threads).
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// --- options -----------------------------------------------------------------

struct Options {
  std::string workload;
  int shards = 1;
  std::uint64_t seed = 1;
  /// Multiplies each workload's virtual duration (or packet count); the
  /// smoke test runs short passes with it.
  double scale = 1.0;
  bool trace = false;
  /// "stream" or "health": removes that plane from the workload that has it,
  /// so run.py can price the plane (l2_forward streams, ddos_vswitch is
  /// monitored).
  std::string without;
  /// Where the l2_forward telemetry stream writes its temporary file.
  std::string out_dir = ".";
};

constexpr const char* kUsage =
    "usage: mg_bench <l2_forward|ddos_vswitch|rpc_open|hwpaced_4x40g|script_fastpath>\n"
    "                [--shards N] [--seed N] [--scale X] [--trace]\n"
    "                [--without stream|health] [--out DIR]\n";

std::optional<Options> parse_options(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Options o;
  o.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--shards") {
      o.shards = std::stoi(value());
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--scale") {
      o.scale = std::stod(value());
    } else if (a == "--trace") {
      o.trace = true;
    } else if (a == "--without") {
      o.without = value();
      if (o.without != "stream" && o.without != "health")
        throw std::invalid_argument("--without takes stream or health");
    } else if (a == "--out") {
      o.out_dir = value();
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (o.shards < 1 || o.shards > 4) throw std::invalid_argument("--shards must be in [1, 4]");
  if (!(o.scale > 0.0 && o.scale <= 1.0)) throw std::invalid_argument("--scale must be in (0, 1]");
  return o;
}

// --- output --------------------------------------------------------------------

/// Flat JSON object writer: keys in insertion order, doubles printed in
/// shortest round-trip form so no digit of a measurement is lost.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return raw(key, std::string(buf, res.ptr));
  }
  Json& num(const std::string& key, std::uint64_t v) { return raw(key, std::to_string(v)); }
  Json& str(const std::string& key, const std::string& v) { return raw(key, quote(v)); }
  Json& boolean(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  Json& raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "" : ", ";
    body_ += quote(key) + ": " + json;
    return *this;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (c == '\n') {
        out += "\\n";
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out + "\"";
  }
  template <typename T, typename F>
  static std::string array(const std::vector<T>& items, F&& to_json) {
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out += ", ";
      out += to_json(items[i]);
    }
    return out + "]";
  }

 private:
  std::string body_;
};

/// The correctness record of one run: report lines of virtual-time values
/// (hashed into the digest) and the failed checks.
class Report {
 public:
  void line(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    text_ += buf;
    text_ += '\n';
  }
  void check(bool ok, const std::string& what) {
    if (!ok) errors_.push_back(what);
  }
  /// FNV-1a over the report text.
  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : text_) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    return h;
  }
  [[nodiscard]] const std::string& text() const { return text_; }
  [[nodiscard]] const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::string text_;
  std::vector<std::string> errors_;
};

using ull = unsigned long long;

/// Layer metrics of one run, by name (see README.md for each definition).
using Layers = std::vector<std::pair<std::string, double>>;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- workloads -----------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the testbed or script runtime and every component (timed as
  /// set-up; build_ms_ is the Scenario::build() part of it).
  virtual void setup(const Options& o) = 0;
  /// The measured call.
  virtual void run() = 0;
  /// Virtual seconds the run covers (script: seconds of the generated
  /// traffic at 10 GbE line rate).
  [[nodiscard]] virtual double sim_seconds() const = 0;
  /// Frames the simulated MACs serialized, or packets the script sent.
  [[nodiscard]] virtual std::uint64_t packets() const = 0;
  /// Appends the virtual-time report and the exact conservation checks.
  virtual void verify(Report& r) = 0;
  /// Appends every layer metric this workload exercises; run.py fills the
  /// rest with 0 (the layer is bypassed).
  virtual void layers(Layers& out, bool traced) = 0;
  /// Extra trace JSON members (spans, histograms); empty when untraced.
  virtual void trace_json(Json& /*out*/) {}
  [[nodiscard]] virtual std::size_t effective_shards() const = 0;

  double build_ms_ = 0;
};

mn::Frame tenant_frame(std::uint16_t vid, std::size_t frame_size, std::uint32_t flow) {
  mc::UdpTemplateOptions opts;
  opts.frame_size = frame_size;
  opts.vlan = true;
  opts.vlan_vid = vid;
  opts.flow = flow;
  return mc::make_udp_frame(opts);
}

/// Per-shard event clock: TSC delta between consecutive events of one
/// run_until call (the dispatch plus the previous event's action). Deltas
/// that span a window boundary would include barrier waits and are skipped:
/// EventQueue::run_wall_ns() changes exactly when a run_until call returns.
class ShardEventClock : public ms::EventTraceSink {
 public:
  explicit ShardEventClock(ms::EventQueue& q) : q_(q), next_(q.trace_sink()) {
    q_.set_trace_sink(this);
  }
  ~ShardEventClock() override { q_.set_trace_sink(next_); }
  ShardEventClock(const ShardEventClock&) = delete;
  ShardEventClock& operator=(const ShardEventClock&) = delete;

  void on_event(ms::SimTime time_ps, std::uint64_t seq) override {
    const std::uint64_t now = tsc();
    const std::uint64_t call = q_.run_wall_ns();
    if (last_ != 0 && call == call_mark_) cycles_.record(now - last_);
    last_ = now;
    call_mark_ = call;
    if (next_ != nullptr) next_->on_event(time_ps, seq);
  }
  [[nodiscard]] const mt::LogLinearHistogram& cycles() const { return cycles_; }

 private:
  ms::EventQueue& q_;
  ms::EventTraceSink* next_;
  mt::LogLinearHistogram cycles_;
  std::uint64_t last_ = 0;
  std::uint64_t call_mark_ = 0;
};

struct Slice {
  ms::SimTime end_ps = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::vector<std::uint64_t> busy_ns;  // per shard
  std::vector<std::uint64_t> events;   // per shard
};

/// Everything the traced run records around a Testbed, from outside it.
class SimTracer {
 public:
  SimTracer(mtb::Testbed& tb, ms::SimTime end_ps) : tb_(tb) {
    const std::size_t n = tb.shard_count();
    for (std::size_t s = 0; s < n; ++s)
      clocks_.push_back(std::make_unique<ShardEventClock>(tb.runtime().shard(s)));
    worker_ns_.assign(n, 0);
    last_busy_.assign(n, 0);
    last_events_.assign(n, 0);
    if (n > 1) {
      // Same pinning as the Testbed's own executor, plus a wall clock per
      // worker: worker wall minus busy time is the synchronization wait.
      tb.runtime().set_executor([this](std::vector<ms::ParallelRuntime::Work>& work) {
        mc::TaskSet tasks;
        for (std::size_t i = 0; i < work.size(); ++i) {
          tasks.launch("shard" + std::to_string(i), [this, &work, i] {
            const std::uint64_t t0 = wall_ns();
            work[i]();
            worker_ns_[i] += wall_ns() - t0;
          });
        }
        tasks.wait();
      });
    }
    const ms::SimTime period = std::max<ms::SimTime>(1, end_ps / kSlices);
    tb.runtime().add_window_hook(period, [this](ms::SimTime due) { close_slice(due); });
  }

  void begin() {
    slice_start_ns_ = run_start_ns_ = wall_ns();
    run_start_tsc_ = tsc();
  }
  /// Closes the partial slice that ends with the run.
  void end() {
    close_slice(tb_.now());
    tsc_ghz_ = ratio(static_cast<double>(tsc() - run_start_tsc_),
                     static_cast<double>(wall_ns() - run_start_ns_));
  }

  /// TSC cycles per nanosecond over the run.
  [[nodiscard]] double tsc_ghz() const { return tsc_ghz_; }
  [[nodiscard]] const std::vector<Slice>& slices() const { return slices_; }
  [[nodiscard]] const std::vector<std::uint64_t>& worker_ns() const { return worker_ns_; }
  [[nodiscard]] mt::LogLinearHistogram merged_cycles() const {
    mt::LogLinearHistogram h;
    for (const auto& c : clocks_) h.merge(c->cycles());
    return h;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<ShardEventClock>>& clocks() const {
    return clocks_;
  }

  static constexpr ms::SimTime kSlices = 1000;

 private:
  void close_slice(ms::SimTime due) {
    const std::uint64_t now = wall_ns();
    Slice s;
    s.end_ps = due;
    s.start_ns = slice_start_ns_;
    s.end_ns = now;
    for (std::size_t i = 0; i < tb_.shard_count(); ++i) {
      auto& q = tb_.runtime().shard(i);
      s.busy_ns.push_back(q.run_wall_ns() - last_busy_[i]);
      s.events.push_back(q.executed() - last_events_[i]);
      last_busy_[i] = q.run_wall_ns();
      last_events_[i] = q.executed();
    }
    slices_.push_back(std::move(s));
    slice_start_ns_ = now;
  }

  mtb::Testbed& tb_;
  std::vector<std::unique_ptr<ShardEventClock>> clocks_;
  std::vector<std::uint64_t> worker_ns_;
  std::vector<std::uint64_t> last_busy_;
  std::vector<std::uint64_t> last_events_;
  std::vector<Slice> slices_;
  std::uint64_t slice_start_ns_ = 0;
  std::uint64_t run_start_ns_ = 0;
  std::uint64_t run_start_tsc_ = 0;
  double tsc_ghz_ = 0;
};

double percentile_of(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = std::min(v.size() - 1, static_cast<std::size_t>(p / 100.0 * v.size()));
  return v[idx];
}

/// Shared part of the four simulated workloads: the Testbed, the generic
/// report (ports, links, RTT plane), the per-link identity and the engine,
/// runtime, wire and NIC layer metrics.
class SimWorkload : public Workload {
 public:
  void run() override {
    if (tracer_) tracer_->begin();
    tb_->run_until(end_ps_);
    if (tracer_) tracer_->end();
    after_run();
  }
  [[nodiscard]] double sim_seconds() const override {
    return static_cast<double>(end_ps_) / 1e12;
  }
  [[nodiscard]] std::uint64_t packets() const override {
    std::uint64_t n = 0;
    for (const int id : tb_->device_ids()) n += tb_->port(id).stats().tx_packets;
    return n;
  }
  [[nodiscard]] std::size_t effective_shards() const override { return tb_->shard_count(); }

  void verify(Report& r) override {
    for (const int id : tb_->device_ids()) {
      const auto& st = tb_->port(id).stats();
      r.line("port %d: tx %llu/%llu B rx %llu/%llu B crc %llu ring_drops %llu", id,
             static_cast<ull>(st.tx_packets), static_cast<ull>(st.tx_bytes),
             static_cast<ull>(st.rx_packets), static_cast<ull>(st.rx_bytes),
             static_cast<ull>(st.crc_errors), static_cast<ull>(st.rx_ring_drops));
    }
    for (std::size_t i = 0; i < tb_->link_count(); ++i) {
      auto& l = tb_->link_at(i);
      r.line("link %zu: carried %llu delivered %llu", i, static_cast<ull>(l.frames_carried()),
             static_cast<ull>(l.delivered()));
      r.check(l.frames_carried() + l.duplicated() ==
                  l.flap_drops() + l.fault_drops() + l.delivered(),
              "link " + std::to_string(i) + " conservation: carried + duplicated != flap + fault "
              "drops + delivered");
    }
    if (tb_->has_rtt_plane()) {
      auto& plane = tb_->rtt_plane();
      for (std::uint32_t g = 0; g < plane.group_count(); ++g) {
        const auto h = plane.cumulative_group(g);
        r.line("rtt group %u: %llu frames p50 %llu p99 %llu p999 %llu ns", g,
               static_cast<ull>(h.total()), static_cast<ull>(h.percentile(50.0)),
               static_cast<ull>(h.percentile(99.0)), static_cast<ull>(h.percentile(99.9)));
      }
      r.line("rtt stamps in flight: %lld", static_cast<long long>(plane.in_flight()));
    }
    verify_components(r);
  }

  void layers(Layers& out, bool traced) override {
    const double sim_ms = sim_seconds() * 1e3;
    const double frames = static_cast<double>(packets());
    std::uint64_t events = 0, wheel = 0, heap = 0, busy = 0, busy_max = 0;
    const std::size_t n = tb_->shard_count();
    for (std::size_t s = 0; s < n; ++s) {
      auto& q = tb_->runtime().shard(s);
      events += q.executed();
      wheel += q.wheel_scheduled();
      heap += q.heap_scheduled();
      busy += q.run_wall_ns();
      busy_max = std::max(busy_max, q.run_wall_ns());
    }
    const double windows = static_cast<double>(tb_->runtime().windows_run());
    std::uint64_t carried = 0, wire_drops = 0;
    for (std::size_t i = 0; i < tb_->link_count(); ++i) {
      auto& l = tb_->link_at(i);
      carried += l.frames_carried();
      wire_drops += l.fault_drops() + l.flap_drops();
    }
    std::uint64_t rx_drops = 0;
    for (const int id : tb_->device_ids()) rx_drops += tb_->port(id).stats().rx_ring_drops;
    std::uint64_t valid = 0, gap = 0;
    for (const auto* g : gens_) {
      valid += g->valid_frames();
      gap += g->gap_frames();
    }
    out.emplace_back("testbed.build_ms", build_ms_);
    out.emplace_back("sim.events_per_frame", ratio(static_cast<double>(events), frames));
    out.emplace_back("sim.busy_ns_per_event",
                     ratio(static_cast<double>(busy), static_cast<double>(events)));
    out.emplace_back("sim.heap_share",
                     ratio(static_cast<double>(heap), static_cast<double>(wheel + heap)));
    out.emplace_back("sim.windows_per_sim_ms", windows / sim_ms);
    out.emplace_back("sim.events_per_window", ratio(static_cast<double>(events), windows));
    out.emplace_back("sim.busy_imbalance",
                     ratio(static_cast<double>(busy_max), static_cast<double>(busy) / n));
    out.emplace_back("wire.frames_per_sim_ms", static_cast<double>(carried) / sim_ms);
    out.emplace_back("wire.cross_shard_per_window",
                     ratio(static_cast<double>(tb_->cross_shard_frames()), windows));
    out.emplace_back("wire.drops", static_cast<double>(wire_drops));
    out.emplace_back("nic.tx_frames_per_sim_ms", frames / sim_ms);
    out.emplace_back("nic.gap_share",
                     ratio(static_cast<double>(gap), static_cast<double>(valid + gap)));
    out.emplace_back("nic.rx_drops", static_cast<double>(rx_drops));
    if (tb_->has_rtt_plane())
      out.emplace_back("telemetry.rtt.records_per_frame",
                       ratio(static_cast<double>(tb_->rtt_plane().recorded()), frames));
    component_layers(out);
    if (!traced) return;

    const auto cycles = tracer_->merged_cycles();
    for (const double p : {50.0, 99.0})
      out.emplace_back(p == 50.0 ? "sim.event_ns.p50" : "sim.event_ns.p99",
                       ratio(static_cast<double>(cycles.percentile(p)), tracer_->tsc_ghz()));
    std::vector<double> slice_ms;
    for (const auto& s : tracer_->slices())
      slice_ms.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    out.emplace_back("sim.slice_ms.p50", percentile_of(slice_ms, 50.0));
    out.emplace_back("sim.slice_ms.p99", percentile_of(slice_ms, 99.0));
    if (n > 1) {
      std::uint64_t worker = 0;
      for (const auto w : tracer_->worker_ns()) worker += w;
      out.emplace_back("sim.sync_wait_share",
                       ratio(static_cast<double>(worker) - static_cast<double>(busy),
                             static_cast<double>(worker)));
    }
  }

  void trace_json(Json& out) override {
    const auto vec = [](const std::vector<std::uint64_t>& v) {
      return Json::array(v, [](std::uint64_t x) { return std::to_string(x); });
    };
    out.num("tsc_ghz", tracer_->tsc_ghz());
    out.raw("slices", Json::array(tracer_->slices(), [&](const Slice& s) {
              return Json()
                  .num("start_ns", s.start_ns)
                  .num("end_ns", s.end_ns)
                  .num("end_ps", static_cast<std::uint64_t>(s.end_ps))
                  .raw("busy_ns", vec(s.busy_ns))
                  .raw("events", vec(s.events))
                  .text();
            }));
    out.raw("worker_ns", vec(tracer_->worker_ns()));
    // Per-shard event-time histograms: [bucket lower edge, count] in TSC
    // cycles, non-empty buckets only.
    Json hists;
    const auto& clocks = tracer_->clocks();
    for (std::size_t s = 0; s < clocks.size(); ++s) {
      const auto& h = clocks[s]->cycles();
      std::vector<std::size_t> used;
      for (std::size_t b = 0; b < h.bucket_count(); ++b)
        if (h.bucket(b) != 0) used.push_back(b);
      hists.raw("event_cycles.shard" + std::to_string(s),
                Json()
                    .num("count", h.total())
                    .num("overflow", h.overflow())
                    .raw("buckets", Json::array(used, [&h](std::size_t b) {
                           return "[" + std::to_string(h.bucket_lower(b)) + ", " +
                                  std::to_string(h.bucket(b)) + "]";
                         }))
                    .text());
    }
    out.raw("histograms", hists.text());
  }

 protected:
  /// Builds the testbed, timing Scenario::build() into build_ms_.
  void build(mtb::Scenario& s) {
    const std::uint64_t t0 = wall_ns();
    tb_ = s.build();
    build_ms_ = static_cast<double>(wall_ns() - t0) / 1e6;
  }
  /// Installs the tracer; call at the end of setup, after every component
  /// (a HealthMonitor installs its own trace sink, which ours chains to).
  void finish_setup(const Options& o) {
    if (o.trace) tracer_ = std::make_unique<SimTracer>(*tb_, end_ps_);
  }
  virtual void after_run() {}
  virtual void verify_components(Report& r) = 0;
  virtual void component_layers(Layers& /*out*/) {}

  std::unique_ptr<mtb::Testbed> tb_;
  ms::SimTime end_ps_ = 0;
  std::vector<const mc::SimLoadGen*> gens_;
  std::unique_ptr<SimTracer> tracer_;
};

ms::SimTime scaled_ps(double seconds, double scale) {
  return static_cast<ms::SimTime>(seconds * scale * 1e12);
}

/// l2_load_latency: X540 generator -> OVS-like forwarder -> sink, 96 B CBR
/// at 1 Mpps with hardware pacing, a stream-mode timestamper every 100 us
/// and a telemetry stream every 10 ms. Two shard groups: {gen, sink} and
/// the DuT pair.
class L2Forward final : public SimWorkload {
 public:
  ~L2Forward() override {
    if (!stream_path_.empty()) std::remove(stream_path_.c_str());
  }
  void setup(const Options& o) override {
    end_ps_ = scaled_ps(0.2, o.scale);
    const std::uint64_t k = o.seed * 16;
    mtb::Scenario s;
    s.seed(o.seed)
        .shards(o.shards)
        .device(0, mn::intel_x540()).name("gen_tx").with_seed(k + 1)
        .device(1, mn::intel_x540()).name("dut_in").with_seed(k + 2).rtt_record(false)
        .device(2, mn::intel_x540()).name("dut_out").with_seed(k + 3).rtt_record(false)
        .device(3, mn::intel_x540()).name("sink").with_seed(k + 4).rx_store(false)
        .link(0, 1).with_seed(k + 5)
        .link(2, 3).with_seed(k + 6)
        .forwarder(1, 2)
        .couple(0, 3);
    if (o.without != "stream") {
      stream_path_ = o.out_dir + "/l2_forward.stream." + std::to_string(getpid()) + ".jsonl";
      s.stream_telemetry(stream_path_, 10'000'000);
    }
    build(s);

    mc::UdpTemplateOptions bg;
    bg.frame_size = 96;
    bg.ptp_payload = true;
    bg.ptp_message_type = 5;
    auto& gen_tx = tb_->port("gen_tx");
    auto& queue = gen_tx.tx_queue(0);
    queue.set_rate_mpps(1.0, 100);
    gen_ = mc::SimLoadGen::hardware_paced(queue, mc::make_udp_frame(bg));
    gens_.push_back(gen_.get());

    mc::UdpTemplateOptions stamped = bg;
    stamped.ptp_message_type = 0;
    mc::TimestamperConfig cfg;
    cfg.sample_interval_ps = 100 * ms::kPsPerUs;
    cfg.hist_bin_ps = 50'000;
    ts_ = std::make_unique<mc::Timestamper>(tb_->engine(0), gen_tx, *gen_,
                                            mc::make_udp_frame(stamped), tb_->port("sink"), cfg);
    ts_->start();
    finish_setup(o);
  }

 private:
  void after_run() override { ts_->stop(); }
  void verify_components(Report& r) override {
    auto& f = tb_->forwarder();
    r.line("forwarder: %llu forwarded %llu interrupts %llu polls",
           static_cast<ull>(f.forwarded()), static_cast<ull>(f.interrupts()),
           static_cast<ull>(f.polls()));
    const auto& h = ts_->histogram();
    r.line("timestamper: %llu samples %llu lost %llu discarded p50 %lld p99 %lld ps",
           static_cast<ull>(ts_->samples()), static_cast<ull>(ts_->lost()),
           static_cast<ull>(ts_->discarded()), static_cast<long long>(h.percentile(50)),
           static_cast<long long>(h.percentile(99)));
    const std::uint64_t pending = ts_->sample_in_flight() ? 1 : 0;
    r.check(ts_->attempts() == ts_->samples() + ts_->lost() + ts_->discarded() + pending,
            "timestamper: attempts != samples + lost + discarded + in-flight");
    r.check(f.forwarded() > 0 && ts_->samples() > 0, "l2_forward: nothing forwarded or sampled");
  }
  void component_layers(Layers& out) override {
    auto& f = tb_->forwarder();
    out.emplace_back("core.timestamper.sample_share",
                     ratio(static_cast<double>(ts_->samples()),
                           static_cast<double>(ts_->attempts())));
    out.emplace_back("dut.forwarder.polls_per_frame",
                     ratio(static_cast<double>(f.polls()), static_cast<double>(f.forwarded())));
  }

  std::string stream_path_;
  std::unique_ptr<mc::SimLoadGen> gen_;
  std::unique_ptr<mc::Timestamper> ts_;
};

/// ddos_isolation defaults: a CBR victim, an 8 Gbit/s CRC-paced burst-train
/// attacker (64/1024 B) shaped to 200 Mbit/s, 2000 Poisson background
/// tenants, a VSwitch with token buckets and DRR, a HealthMonitor at 1 ms
/// and 4 RTT groups. Four shard groups, three cross-shard cables.
class DdosVswitch final : public SimWorkload {
 public:
  void setup(const Options& o) override {
    end_ps_ = scaled_ps(0.1, o.scale);
    constexpr int kTenants = 2'000;
    constexpr double kAttackMbit = 8'000.0;
    constexpr double kBackgroundMbit = 1'000.0;
    md::VSwitchConfig cfg;
    md::TenantConfig victim;
    victim.vid = 10;
    victim.vport = 0;
    victim.flow = 1;
    md::TenantConfig attacker;
    attacker.vid = 20;
    attacker.vport = 0;
    attacker.flow = 2;
    attacker.rate_mbit = 200.0;
    attacker.burst_bytes = 16'000;
    cfg.tenants = {victim, attacker};
    for (int i = 0; i < kTenants; ++i) {
      md::TenantConfig t;
      t.vid = static_cast<std::uint16_t>(100 + i);
      t.vport = 1;
      t.priority = 4;
      t.flow = 3;
      t.rate_mbit = 2.0 * kBackgroundMbit / kTenants;
      t.burst_bytes = 4'000;
      cfg.tenants.push_back(t);
    }
    cfg.flood_vport = 1;

    const std::uint64_t k = o.seed * 16;
    mtb::Scenario s;
    s.seed(o.seed)
        .shards(o.shards)
        .rtt_groups(4)
        .device(0, mn::intel_x540()).name("gen").with_seed(k + 1)
        .device(1, mn::intel_x540()).name("vs_in").with_seed(k + 2).rtt_record(false)
        .device(2, mn::intel_x540()).name("vport0").with_seed(k + 3)
            .link_mbit(1'000).rtt_record(false)
        .device(3, mn::intel_x540()).name("sink0").with_seed(k + 4)
            .link_mbit(1'000).rx_store(false)
        .device(4, mn::intel_x540()).name("vport1").with_seed(k + 5).rtt_record(false)
        .device(5, mn::intel_x540()).name("sink1").with_seed(k + 6).rx_store(false)
        .link(0, 1).with_seed(k + 7)
        .link(2, 3).with_seed(k + 8).latency_ns(25'000)
        .link(4, 5).with_seed(k + 9).latency_ns(5'000)
        .vswitch(1, {2, 4}, cfg);
    build(s);

    auto& gen = tb_->port("gen");
    auto& victim_q = gen.tx_queue(0);
    victim_q.set_rate_wire_mbit(100.0);
    victim_gen_ = mc::SimLoadGen::hardware_paced(victim_q, tenant_frame(10, 128, 1));

    const double attack_wire_bytes = ((64.0 + 20.0) + (1'024.0 + 20.0)) / 2.0;
    attack_gen_ = mc::SimLoadGen::crc_paced(
        gen.tx_queue(1), tenant_frame(20, 64, 2),
        std::make_unique<mc::BurstPattern>(kAttackMbit / (attack_wire_bytes * 8.0), 128,
                                           static_cast<std::size_t>(attack_wire_bytes), 10'000),
        10'000);
    attack_gen_->set_templates({tenant_frame(20, 64, 2), tenant_frame(20, 1'024, 2)});

    std::vector<mn::Frame> bg;
    bg.reserve(kTenants);
    for (int i = 0; i < kTenants; ++i)
      bg.push_back(tenant_frame(static_cast<std::uint16_t>(100 + i), 128, 3));
    bg_gen_ = mc::SimLoadGen::crc_paced(
        gen.tx_queue(2), bg.front(),
        std::make_unique<mc::PoissonPattern>(kBackgroundMbit / ((128.0 + 20.0) * 8.0),
                                             static_cast<std::uint32_t>(77 + o.seed)),
        10'000);
    bg_gen_->set_templates(std::move(bg));
    gens_ = {victim_gen_.get(), attack_gen_.get(), bg_gen_.get()};

    if (o.without != "health") {
      mh::MonitorConfig hc;
      hc.window_ps = 1 * ms::kPsPerMs;
      mon_ = std::make_unique<mh::HealthMonitor>(*tb_, hc);
      mon_->start(end_ps_);
    }
    finish_setup(o);
  }

  ~DdosVswitch() override {
    // The tracer's sinks chain to the monitor's flight recorder: unhook
    // them before the monitor detaches its own.
    tracer_.reset();
  }

 private:
  void verify_components(Report& r) override {
    auto& vs = tb_->vswitch();
    r.line("vswitch: %llu received %llu matched %llu flooded %llu shaped %llu queue drops "
           "%llu emitted",
           static_cast<ull>(vs.received()), static_cast<ull>(vs.matched()),
           static_cast<ull>(vs.flooded()), static_cast<ull>(vs.shaped_drops()),
           static_cast<ull>(vs.queue_drops()), static_cast<ull>(vs.emitted()));
    r.line("attacker: %llu wire bytes emitted",
           static_cast<ull>(vs.tenant_counters(1).emitted_wire_bytes));
    r.check(vs.received() == vs.matched() + vs.flooded() + vs.shaped_drops() +
                                 vs.queue_drops() + vs.fault_drops(),
            "vswitch ingress identity: received != matched + flooded + shaped + queue + "
            "fault drops");
    r.check(vs.matched() > 0, "ddos_vswitch: nothing matched");
    if (mon_) {
      for (const auto& v : mon_->violations())
        r.check(false, "health violation: " + v.checker + ": " + v.detail);
    }
  }
  void component_layers(Layers& out) override {
    auto& vs = tb_->vswitch();
    const double received = static_cast<double>(vs.received());
    out.emplace_back("dut.vswitch.match_share", ratio(static_cast<double>(vs.matched()), received));
    out.emplace_back("dut.vswitch.shaped_share",
                     ratio(static_cast<double>(vs.shaped_drops()), received));
    if (mon_) {
      out.emplace_back("health.checks_per_sim_ms",
                       static_cast<double>(mon_->checkers().checks_run()) / (sim_seconds() * 1e3));
      out.emplace_back("health.violations", static_cast<double>(mon_->violations().size()));
    }
  }

  std::unique_ptr<mc::SimLoadGen> victim_gen_;
  std::unique_ptr<mc::SimLoadGen> attack_gen_;
  std::unique_ptr<mc::SimLoadGen> bg_gen_;
  std::unique_ptr<mh::HealthMonitor> mon_;
};

/// rpc_load_latency open mode: two duplex client/server pairs, open-loop
/// Zipf get/set at 800 krps total, exponential 8 us service on 4 workers,
/// then a 60 ms drain. Each pair is split across shards.
class RpcOpen final : public SimWorkload {
 public:
  void setup(const Options& o) override {
    constexpr int kPairs = 2;
    const ms::SimTime stop_ps = scaled_ps(0.1, o.scale);
    end_ps_ = stop_ps + 60 * ms::kPsPerMs;
    mtb::Scenario s;
    s.seed(o.seed).shards(o.shards);
    for (int i = 0; i < kPairs; ++i) {
      const auto u = static_cast<std::uint64_t>(i);
      s.device(2 * i, mn::intel_x540()).name("client" + std::to_string(i))
          .with_seed(o.seed * 64 + 10 + u).rx_store(false)
          .device(2 * i + 1, mn::intel_x540()).name("server" + std::to_string(i))
          .with_seed(o.seed * 64 + 20 + u).rx_store(false)
          .link(2 * i, 2 * i + 1).with_seed(o.seed * 64 + 30 + 2 * u).duplex();
    }
    build(s);
    for (int i = 0; i < kPairs; ++i) {
      const auto u = static_cast<std::uint64_t>(i);
      mr::ServerConfig sc;
      sc.workers = 4;
      sc.service = mr::ServerConfig::Service::kExponential;
      sc.service_mean_ps = 8.0 * static_cast<double>(ms::kPsPerUs);
      sc.seed = o.seed + 100 + u;
      servers_.push_back(
          std::make_unique<mr::ServerModel>(tb_->port("server" + std::to_string(i)), sc));
      recorders_.push_back(std::make_unique<mr::LatencyRecorder>());
      mr::WorkloadConfig wc;
      wc.offered_rps = 800'000.0 / kPairs;
      wc.seed = o.seed + 200 + u;
      wc.seq_base = 1 + (u << 32);
      wc.warmup_ps = stop_ps / 10;
      wc.cooldown_ps = stop_ps / 20;
      wc.timeout_ps = 50 * ms::kPsPerMs;
      clients_.push_back(std::make_unique<mr::OpenLoopGenerator>(
          tb_->port("client" + std::to_string(i)), *recorders_.back(), wc));
      clients_.back()->start(0, stop_ps);
    }
    finish_setup(o);
  }

 private:
  void verify_components(Report& r) override {
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      const auto& c = *clients_[i];
      const auto& sv = *servers_[i];
      const auto& lat = *recorders_[i];
      r.line("pair %zu: issued %llu matched %llu timed out %llu send drops %llu inflight %zu "
             "completed %llu queue drops %llu p50 %llu p99 %llu ns",
             i, static_cast<ull>(c.issued()), static_cast<ull>(c.matched()),
             static_cast<ull>(c.timed_out()), static_cast<ull>(c.send_drops()), c.inflight(),
             static_cast<ull>(sv.completed()), static_cast<ull>(sv.queue_drops()),
             static_cast<ull>(lat.p50_ns()), static_cast<ull>(lat.p99_ns()));
      r.check(c.issued() == c.matched() + c.timed_out() + c.send_drops() + c.inflight(),
              "rpc pair " + std::to_string(i) +
                  ": issued != matched + timed_out + send_drops + inflight");
      r.check(c.matched() > 0, "rpc pair " + std::to_string(i) + ": nothing matched");
    }
  }
  void component_layers(Layers& out) override {
    std::uint64_t issued = 0, matched = 0;
    for (const auto& c : clients_) {
      issued += c->issued();
      matched += c->matched();
    }
    out.emplace_back("rpc.match_share",
                     ratio(static_cast<double>(matched), static_cast<double>(issued)));
  }

  std::vector<std::unique_ptr<mr::ServerModel>> servers_;
  std::vector<std::unique_ptr<mr::LatencyRecorder>> recorders_;
  std::vector<std::unique_ptr<mr::OpenLoopGenerator>> clients_;
};

/// parallel_scaling: four independent XL710 generator -> sink pairs, 64 B
/// frames at 40 Mpps hardware pacing, no cross-shard links.
class HwPaced4x40g final : public SimWorkload {
 public:
  void setup(const Options& o) override {
    constexpr int kPairs = 4;
    end_ps_ = scaled_ps(0.004, o.scale);
    mtb::Scenario s;
    s.seed(o.seed).shards(o.shards).telemetry(false);
    for (int p = 0; p < kPairs; ++p) {
      s.device(2 * p, mn::intel_xl710()).name("gen" + std::to_string(p)).link_mbit(40'000)
          .device(2 * p + 1, mn::intel_xl710()).name("sink" + std::to_string(p))
          .link_mbit(40'000).rx_store(false)
          .link(2 * p, 2 * p + 1)
          .couple(2 * p, 2 * p + 1);
    }
    build(s);
    mc::UdpTemplateOptions opts;
    opts.frame_size = 64;
    for (int p = 0; p < kPairs; ++p) {
      auto& queue = tb_->port(2 * p).tx_queue(0);
      queue.set_rate_mpps(40.0, 64);
      gens_owned_.push_back(mc::SimLoadGen::hardware_paced(queue, mc::make_udp_frame(opts)));
      gens_.push_back(gens_owned_.back().get());
    }
    finish_setup(o);
  }

 private:
  void verify_components(Report& r) override {
    for (int p = 0; p < 4; ++p)
      r.check(tb_->port(2 * p + 1).stats().rx_packets > 0,
              "hwpaced pair " + std::to_string(p) + ": sink received nothing");
  }

  std::vector<std::unique_ptr<mc::SimLoadGen>> gens_owned_;
};

/// ablation_scripting's trace-tier userscript: 60 B UDP packets in 64-packet
/// batches, source IP randomized per packet. Devices and pools come only
/// through the script bindings.
constexpr const char* kScript = R"(
function setup(port, seed)
  math.randomseed(seed)
  local dev = device.config(port, 1, 1)
  local mem = memory.createMemPool(function(buf)
    buf:getUdpPacket():fill{
      pktLength = 60,
      ethDst = "10:11:12:13:14:15",
      ipDst = "192.168.1.1",
      udpSrc = 1234,
      udpDst = 319,
    }
  end)
  return dev:getTxQueue(0), mem
end

function run(queue, mem, n)
  local baseIP = parseIPAddress("10.0.0.1")
  local bufs = mem:bufArray()
  local sent = 0
  while sent < n do
    bufs:alloc(60)
    for _, buf in ipairs(bufs) do
      buf:getUdpPacket().ip.src:set(baseIP + math.random(255) - 1)
    end
    sent = sent + queue:send(bufs)
  end
  return sent
end

function master() end
)";

constexpr std::size_t kScriptPktSize = 60;

/// 10 GbE line rate for 60 B packets (64 B frames on the wire plus preamble
/// and inter-frame gap): the packet rate that defines one "virtual second"
/// of script_fastpath traffic.
constexpr double kLineRatePps =
    10e9 / (static_cast<double>(kScriptPktSize + mp::kFcsSize + mp::kWireOverhead) * 8.0);

/// script_fastpath: real time, no simulator, one core. The fast path has no
/// shards, so every requested shard count runs the same single task (one
/// core::TaskSet thread, pinned like a MoonGen slave).
class ScriptFastpath final : public Workload {
 public:
  void setup(const Options& o) override {
    requested_ = std::max<std::uint64_t>(
        64, static_cast<std::uint64_t>(16.0 * 1024 * 1024 * o.scale) / 64 * 64);
    runtime_ = std::make_unique<msc::ScriptRuntime>(kScript);
    auto& in = runtime_->master();
    in.run();
    auto handles = in.call(in.get_global("setup"), {msc::Value(static_cast<double>(kPort)),
                                                     msc::Value(static_cast<double>(o.seed))});
    queue_ = handles.at(0);
    mem_ = handles.at(1);
    run_fn_ = in.get_global("run");
  }

  void run() override {
    mc::TaskSet task;
    task.launch("script", [this] {
      try {
        const std::uint64_t c0 = tsc();
        auto r = runtime_->master().call(
            run_fn_, {queue_, mem_, msc::Value(static_cast<double>(requested_))});
        cycles_ = tsc() - c0;
        sent_ = r.empty() ? 0 : static_cast<std::uint64_t>(r[0].as_number());
      } catch (const std::exception& e) {
        error_ = e.what();
      }
    });
    task.wait();
  }

  [[nodiscard]] double sim_seconds() const override {
    return static_cast<double>(requested_) / kLineRatePps;
  }
  [[nodiscard]] std::uint64_t packets() const override { return sent_; }
  [[nodiscard]] std::size_t effective_shards() const override { return 1; }

  void verify(Report& r) override {
    auto* dev = mc::DeviceTable::process_default().find(kPort);
    const std::uint64_t queued = dev != nullptr ? dev->get_tx_queue(0).sent_packets() : 0;
    r.line("script: sent %llu packets", static_cast<ull>(sent_));
    r.check(error_.empty(), "script failed: " + error_);
    r.check(sent_ == requested_ && queued == requested_,
            "script sent " + std::to_string(sent_) + " (queue " + std::to_string(queued) +
                ") of " + std::to_string(requested_) + " packets");
  }

  void layers(Layers& out, bool traced) override {
    if (!traced) return;
    const double script = ratio(static_cast<double>(cycles_), static_cast<double>(sent_));
    const double floor = floor_cycles_per_pkt(std::min<std::uint64_t>(requested_, 1u << 21));
    out.emplace_back("script.cycles_per_pkt", script);
    out.emplace_back("script.floor_cycles_per_pkt", floor);
    out.emplace_back("script.overhead_cycles_per_pkt", script - floor);
  }

 private:
  static constexpr int kPort = 0;

  /// The same loop hand-written: ModifierProgram + BufArray + a TxQueue of
  /// a private DeviceTable. The script's cost above this floor is the
  /// scripting overhead.
  static double floor_cycles_per_pkt(std::uint64_t n) {
    mc::DeviceTable table;
    auto& queue = table.config(kPort, 1, 1).get_tx_queue(0);
    mb::Mempool pool(mb::Mempool::kDefaultCapacity, [](mb::PktBuf& buf) {
      buf.set_length(kScriptPktSize);
      mp::UdpPacketView view{buf.bytes()};
      mp::UdpFillOptions opts;
      opts.packet_length = kScriptPktSize;
      view.fill(opts);
    });
    mb::BufArray bufs(pool, 64);
    mc::ModifierProgram prog({{.field = {26, 4},
                               .kind = mc::FieldAction::Kind::kRandom,
                               .value = 0x0a000001,
                               .range = 256}});
    std::uint64_t sent = 0;
    const std::uint64_t c0 = tsc();
    while (sent < n) {
      bufs.alloc(kScriptPktSize);
      for (auto* buf : bufs) prog.apply(buf->data());
      sent += queue.send(bufs);
    }
    return ratio(static_cast<double>(tsc() - c0), static_cast<double>(sent));
  }

  std::unique_ptr<msc::ScriptRuntime> runtime_;
  msc::Value queue_;
  msc::Value mem_;
  msc::Value run_fn_;
  std::uint64_t requested_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t cycles_ = 0;
  std::string error_;
};

// --- probes ----------------------------------------------------------------------

/// Times `body(i)` for `n` iterations; returns ns per iteration.
template <typename F>
double probe_ns(std::uint64_t n, F&& body) {
  const std::uint64_t t0 = wall_ns();
  for (std::uint64_t i = 0; i < n; ++i) body(i);
  return static_cast<double>(wall_ns() - t0) / static_cast<double>(n);
}

volatile std::uint64_t probe_sink = 0;

/// Single-layer probe loops, measured in traced 1-shard runs of every
/// workload (they do not depend on the workload's run).
void probe_layers(Layers& out) {
  // proto: classify ddos_vswitch's frame mix (VLAN-tagged 64/128/1024 B).
  std::vector<mn::Frame> mix = {tenant_frame(10, 128, 1), tenant_frame(20, 64, 2),
                                tenant_frame(20, 1'024, 2)};
  for (int i = 0; i < 61; ++i) mix.push_back(tenant_frame(static_cast<std::uint16_t>(100 + i), 128, 3));
  out.emplace_back("proto.classify_ns_per_frame", probe_ns(1u << 20, [&](std::uint64_t i) {
                     const auto& bytes = *mix[i % mix.size()].data;
                     const auto c = mp::classify(bytes);
                     probe_sink = probe_sink + (c ? c->l4_offset : 0);
                   }));

  // membuf: 64-packet alloc/free batches, as the script's bufArray does.
  {
    mb::Mempool pool(4096);
    std::vector<mb::PktBuf*> bufs(64);
    constexpr std::uint64_t kBatches = 1u << 14;
    const double per_batch = probe_ns(kBatches, [&](std::uint64_t) {
      const std::size_t got = pool.alloc_batch(bufs, kScriptPktSize);
      pool.free_batch({bufs.data(), got});
    });
    out.emplace_back("membuf.alloc_free_ns_per_pkt", per_batch / 64.0);
  }

  // rpc: encode the per-request fields, then decode the frame.
  {
    const auto tmpl = mr::make_rpc_frame({});
    std::vector<std::uint8_t> frame(*tmpl.data);
    out.emplace_back("rpc.codec_ns_per_req", probe_ns(1u << 20, [&](std::uint64_t i) {
                       mr::write_rpc_fields(frame, mr::Op::kGet, i + 1, i * 7, i * 1000);
                       const auto d = mr::decode(frame);
                       probe_sink = probe_sink + (d ? d->seq : 0);
                     }));
  }

  // rpc: sliding window of insert/take at a steady occupancy of 256.
  {
    constexpr std::uint64_t kOccupancy = 256;
    mr::InFlightTable table(kOccupancy);
    for (std::uint64_t s = 1; s <= kOccupancy; ++s) table.insert(s, s, 0);
    const double per_pair = probe_ns(1u << 20, [&](std::uint64_t i) {
      table.insert(i + kOccupancy + 1, i, 0);
      const auto r = table.take(i + 1);
      probe_sink = probe_sink + (r ? r->key : 0);
    });
    out.emplace_back("rpc.inflight_ns_per_op", per_pair / 2.0);
  }

  // telemetry: RttShard::record over four flow groups and spread latencies.
  {
    mt::RttPlaneConfig cfg;
    cfg.flow_groups = 4;
    mt::RttPlane plane(cfg, 1);
    auto& shard = plane.shard(0);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    out.emplace_back("telemetry.rtt.record_ns", probe_ns(1u << 20, [&](std::uint64_t i) {
                       x = x * 6364136223846793005ull + 1442695040888963407ull;
                       shard.record(static_cast<std::uint32_t>(i & 3), 1'000 + (x >> 48));
                     }));
  }
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "l2_forward") return std::make_unique<L2Forward>();
  if (name == "ddos_vswitch") return std::make_unique<DdosVswitch>();
  if (name == "rpc_open") return std::make_unique<RpcOpen>();
  if (name == "hwpaced_4x40g") return std::make_unique<HwPaced4x40g>();
  if (name == "script_fastpath") return std::make_unique<ScriptFastpath>();
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Options> opts;
  try {
    opts = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mg_bench: %s\n%s", e.what(), kUsage);
    return 2;
  }
  if (!opts) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  const Options& o = *opts;
  auto workload = make_workload(o.workload);
  if (!workload) {
    std::fprintf(stderr, "mg_bench: unknown workload '%s'\n%s", o.workload.c_str(), kUsage);
    return 2;
  }

  Json out;
  Report report;
  try {
    const std::uint64_t t_start = wall_ns();
    workload->setup(o);
    const std::uint64_t t_setup = wall_ns();

    const double cpu0 = cpu_seconds();
    const std::uint64_t w0 = wall_ns();
    workload->run();
    const std::uint64_t w1 = wall_ns();
    const double cpu_s = cpu_seconds() - cpu0;

    workload->verify(report);
    Layers layers;
    workload->layers(layers, o.trace);
    const double wall_s = static_cast<double>(w1 - w0) / 1e9;
    layers.emplace_back("sim.cpu_per_wall", ratio(cpu_s, wall_s));
    if (o.trace && o.shards == 1) probe_layers(layers);

    Json lj;
    for (const auto& [name, value] : layers) lj.num(name, value);
    out.str("workload", o.workload)
        .num("seed", o.seed)
        .num("shards", static_cast<std::uint64_t>(o.shards))
        .num("effective_shards", static_cast<std::uint64_t>(workload->effective_shards()))
        .num("scale", o.scale)
        .boolean("traced", o.trace)
        .str("without", o.without)
        .boolean("ok", report.errors().empty())
        .raw("errors", Json::array(report.errors(), [](const std::string& e) {
               return Json::quote(e);
             }))
        .str("digest", [&] {
          char buf[32];
          std::snprintf(buf, sizeof buf, "%016llx", static_cast<ull>(report.digest()));
          return std::string(buf);
        }())
        .str("report", report.text())
        .num("setup_s", static_cast<double>(t_setup - t_start) / 1e9)
        .num("wall_s", wall_s)
        .num("cpu_s", cpu_s)
        .num("sim_s", workload->sim_seconds())
        .num("packets", workload->packets())
        .num("peak_rss_mb", peak_rss_mb())
        .raw("layers", lj.text());
    if (o.trace) {
      Json tj;
      tj.num("start_ns", t_start).num("setup_end_ns", t_setup).num("run_start_ns", w0)
          .num("run_end_ns", w1);
      workload->trace_json(tj);
      out.raw("trace", tj.text());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mg_bench: %s failed: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  std::printf("%s\n", out.text().c_str());
  return report.errors().empty() ? 0 : 1;
}
