// chaos-soak: seeded multi-phase fault-churn soak with the runtime health
// plane armed — the repo's standing answer to "does a long adversarial run
// still conserve every frame, buffer and request?"
//
// One testbed carries both traffic planes:
//   * an L2 chain (gen_tx -> DuT forwarder -> sink) under CBR load, and
//   * two open-loop RPC client/server pairs on their own duplex wires,
// plus a mempool-churn task that allocates and frees packet buffers in a
// steady rhythm. A built-in fault schedule ramps through phases over the
// run: light frame loss; heavy loss + corruption + link flaps + allocation
// failures; server stalls + injected RX overflow; then a recovery phase
// with every rule off. All of it is seeded and windowed in *virtual* time,
// so a given (--seed, --shards, flags) tuple replays byte-identically.
//
// The health plane runs throughout: invariant checkers (engine audit, link
// frame conservation, port accounting, RPC request conservation, mempool
// conservation) every millisecond at quiesced window boundaries, the
// flight recorder tracing every shard, a wall-clock watchdog over the
// shard synchronization, and a degradation governor that sheds open-loop load
// under sustained allocation/overflow pressure and restores it with
// hysteresis once the pressure clears.
//
// Exit codes: 0 clean; 1 bad arguments, or --inject-leak leaked no buffer;
// 2 invariant violation (flight-recorder JSON dumped to --fr-dump or
// stderr); 4 watchdog trip (ditto). CI runs this across seeds and shard
// counts and additionally diffs `--no-chaos` stdout against
// `--no-chaos --no-health` — checkers are observation-only, so those two
// runs must be byte-identical.
//
// Flags (besides the shared example flags):
//   --no-health     run without the health plane (byte-identity baseline)
//   --no-chaos      drop the built-in fault schedule (still honors --faults)
//   --inject-leak   deliberately leak one mempool buffer mid-run (retried
//                   every simulated ms while allocation fails): the
//                   conservation checker must catch it within one window
//                   (negative test for the detection machinery itself)
//   --fr-dump FILE  write the flight-recorder dump here instead of stderr
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "core/rate_control.hpp"
#include "health/monitor.hpp"
#include "membuf/mempool.hpp"
#include "membuf/ring.hpp"
#include "rpc/open_loop.hpp"
#include "rpc/server_model.hpp"
#include "testbed/scenario.hpp"
#include "topologies.hpp"

namespace mc = moongen::core;
namespace me = moongen::examples;
namespace mf = moongen::fault;
namespace mh = moongen::health;
namespace mm = moongen::membuf;
namespace mr = moongen::rpc;
namespace ms = moongen::sim;
namespace mtb = moongen::testbed;
namespace topo = moongen::topologies;

namespace {

constexpr const char* kUsage =
    "usage: chaos_soak [seconds] [l2_mpps] [--seed N] [--shards N] [--faults SPEC]\n"
    "                  [--no-health] [--no-chaos] [--inject-leak] [--fr-dump FILE]\n";

/// Steady allocate/hold/free rhythm against a private mempool, with its
/// alloc-failure fault site armed. The held() count is the component's own
/// books — exactly what the mempool conservation checker reconciles against
/// the pool's free list. leak_one() allocates a buffer and drops the
/// pointer: the books no longer balance, and the checker must say so.
class PoolChurn {
 public:
  PoolChurn(ms::EventQueue& events, std::size_t capacity)
      : events_(events), pool_(capacity) {}

  [[nodiscard]] mm::Mempool& pool() { return pool_; }
  [[nodiscard]] std::size_t held() const { return held_.size(); }
  [[nodiscard]] std::uint64_t leaked() const { return leaked_; }

  void start(ms::SimTime end_ps) {
    end_ps_ = end_ps;
    events_.schedule_at(events_.now() + kGapPs, [this] { tick(); });
  }

  void leak_one() {
    if (pool_.alloc(64) != nullptr) ++leaked_;
  }

 private:
  static constexpr ms::SimTime kGapPs = 2 * ms::kPsPerUs;

  void tick() {
    while (held_.size() > 16) pool_.free(held_.pop_front());
    std::array<mm::PktBuf*, 8> batch{};
    const std::size_t got = pool_.alloc_batch({batch.data(), batch.size()}, 64);
    for (std::size_t i = 0; i < got; ++i) held_.push_back(batch[i]);
    if (events_.now() + kGapPs < end_ps_) events_.schedule_in(kGapPs, [this] { tick(); });
  }

  ms::EventQueue& events_;
  mm::Mempool pool_;
  mm::BoundedRing<mm::PktBuf*> held_{24};  // at most 16 kept + one batch of 8
  std::uint64_t leaked_ = 0;
  ms::SimTime end_ps_ = 0;
};

/// The built-in multi-phase schedule: every window is a fraction of the run
/// so the phases scale with [seconds]. Seeded from the scenario seed —
/// byte-identical replays per (seed, shards).
mf::FaultSpec phased_schedule(std::uint64_t seed, ms::SimTime end_ps) {
  const auto at = [end_ps](double f) {
    return static_cast<ms::SimTime>(f * static_cast<double>(end_ps));
  };
  const auto rule = [](mf::FaultKind kind, const char* site, double p, std::uint32_t burst,
                       ms::SimTime from, ms::SimTime to, double param = 0.0) {
    mf::FaultRule r;
    r.kind = kind;
    r.site = site;
    r.probability = p;
    r.burst = burst;
    r.window_start_ps = from;
    r.window_end_ps = to;
    r.param = param;
    return r;
  };
  mf::FaultSpec spec;
  spec.seed = seed;
  // Phase 1 — light frame loss everywhere.
  spec.rules.push_back(rule(mf::FaultKind::kFrameLoss, "wire", 5e-4, 1, at(0.05), at(0.25)));
  // Phase 2 — heavy loss, corruption, a flapping first hop, alloc failures.
  spec.rules.push_back(rule(mf::FaultKind::kFrameLoss, "wire", 2e-3, 2, at(0.25), at(0.50)));
  spec.rules.push_back(
      rule(mf::FaultKind::kFrameCorrupt, "wire.l1", 5e-4, 1, at(0.25), at(0.50)));
  spec.rules.push_back(
      rule(mf::FaultKind::kLinkFlap, "wire.l1", 2e-6, 1, at(0.25), at(0.50), 2e8));
  spec.rules.push_back(
      rule(mf::FaultKind::kAllocFail, "pool.churn", 0.3, 8, at(0.25), at(0.50)));
  // Phase 3 — server stalls and injected RX overflow at the L2 sink.
  spec.rules.push_back(
      rule(mf::FaultKind::kStall, "rpc", 5e-3, 1, at(0.50), at(0.70), 2e8));
  spec.rules.push_back(
      rule(mf::FaultKind::kRxOverflow, "nic.sink", 2e-3, 16, at(0.50), at(0.70)));
  spec.rules.push_back(rule(mf::FaultKind::kFrameLoss, "wire", 2e-4, 1, at(0.50), at(0.70)));
  // Phase 4 — recovery: no rules; governors must return to steady state.
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  // Pre-filter this example's own flags; everything else goes to the shared
  // parser (unknown flags would otherwise land in positional and be
  // silently misread as [seconds]).
  bool health_enabled = true;
  bool chaos_enabled = true;
  bool inject_leak = false;
  std::string fr_dump_path;
  std::vector<char*> filtered;
  filtered.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--no-health") {
      health_enabled = false;
    } else if (a == "--no-chaos") {
      chaos_enabled = false;
    } else if (a == "--inject-leak") {
      inject_leak = true;
    } else if (a == "--fr-dump" && i + 1 < argc) {
      fr_dump_path = argv[++i];
    } else {
      filtered.push_back(argv[i]);
    }
  }
  const auto cli = me::parse_cli(static_cast<int>(filtered.size()), filtered.data(), kUsage);
  if (!cli) return 2;
  const double seconds = cli->number(0, 0.08);
  const double l2_mpps = cli->number(1, 2.0);
  const auto end_ps = static_cast<ms::SimTime>(seconds * 1e12);
  const ms::SimTime drain_ps = end_ps + 20 * ms::kPsPerMs;

  mf::FaultSpec spec = cli->faults;
  if (chaos_enabled && !cli->has_faults()) spec = phased_schedule(cli->seed, end_ps);

  std::printf("chaos-soak: %.0f ms, %.2f Mpps L2 + 2x open-loop RPC, %zu fault rules\n\n",
              seconds * 1e3, l2_mpps, spec.rules.size());

  mtb::Scenario scenario;
  scenario.seed(cli->seed).shards(cli->shards).faults(spec);
  topo::forwarder_path(scenario, {.device_seeds = {1, 2, 3, 4}, .link_seeds = {11, 12}});
  topo::rpc_pair(scenario,
                 {.first_id = 4, .suffix = "0", .device_seeds = {5, 6}, .link_seeds = {13}});
  topo::rpc_pair(scenario,
                 {.first_id = 6, .suffix = "1", .device_seeds = {7, 8}, .link_seeds = {14}});
  auto tb = scenario.build();

  // --- L2 plane: CBR load through the forwarder ----------------------------
  mc::UdpTemplateOptions bg;
  bg.frame_size = 96;
  auto& l2_queue = tb->port("gen_tx").tx_queue(0);
  l2_queue.set_rate_mpps(l2_mpps, 100);
  auto l2_gen = mc::SimLoadGen::hardware_paced(l2_queue, mc::make_udp_frame(bg));

  // --- RPC plane: two independent open-loop pairs --------------------------
  std::vector<std::unique_ptr<mr::ServerModel>> servers;
  std::vector<std::unique_ptr<mr::LatencyRecorder>> recorders;
  std::vector<std::unique_ptr<mr::OpenLoopGenerator>> gens;
  for (int i = 0; i < 2; ++i) {
    const int client_dev = 4 + 2 * i;
    const int server_dev = 5 + 2 * i;
    mr::ServerConfig sc;
    sc.workers = 1;
    sc.service = mr::ServerConfig::Service::kExponential;
    sc.service_mean_ps = 4.0 * static_cast<double>(ms::kPsPerUs);
    sc.seed = 7 + static_cast<std::uint64_t>(i);
    servers.push_back(std::make_unique<mr::ServerModel>(tb->port(server_dev), sc));
    if (tb->has_faults())
      servers.back()->install_faults(*tb->fault_plane(tb->shard_of(server_dev)),
                                     "rpc.s" + std::to_string(i));
    recorders.push_back(std::make_unique<mr::LatencyRecorder>());
    mr::WorkloadConfig wc;
    wc.offered_rps = 100'000.0;
    wc.seed = 42 + static_cast<std::uint64_t>(i);
    wc.timeout_ps = 5 * ms::kPsPerMs;
    wc.seq_base = 1 + (static_cast<std::uint64_t>(i) << 32);
    gens.push_back(std::make_unique<mr::OpenLoopGenerator>(tb->port(client_dev), *recorders.back(),
                                                           wc));
    gens.back()->start(0, end_ps);
  }

  // --- mempool churn --------------------------------------------------------
  PoolChurn churn(tb->engine(0), 256);
  if (tb->has_faults())
    churn.pool().install_faults(*tb->fault_plane(tb->shard_of(0)), "pool.churn");
  churn.start(end_ps);
  // An allocation in pool.churn's alloc-failure phase leaks nothing, so the
  // leak is retried every simulated ms until one buffer is gone.
  std::function<void()> leak = [&] {
    churn.leak_one();
    const ms::SimTime next = tb->now() + ms::kPsPerMs;
    if (churn.leaked() == 0 && next < end_ps) tb->schedule_global(next, leak);
  };
  if (inject_leak) tb->schedule_global(end_ps / 3, leak);

  // --- health plane ---------------------------------------------------------
  std::unique_ptr<mh::HealthMonitor> mon;
  mh::DegradationGovernor* governor = nullptr;
  if (health_enabled) {
    mh::MonitorConfig hc;
    hc.window_ps = 1 * ms::kPsPerMs;
    hc.enable_watchdog = true;
    hc.watchdog.poll_ms = 100;
    hc.watchdog.budget_ms = 5000;
    mon = std::make_unique<mh::HealthMonitor>(*tb, hc);
    for (std::size_t i = 0; i < gens.size(); ++i)
      mon->checkers().add("rpc.client" + std::to_string(i), mh::make_rpc_checker(*gens[i]));
    mon->checkers().add("mempool.churn", mh::make_mempool_checker(
                                             churn.pool(), [&churn] { return churn.held(); }));
    // Shed open-loop load under sustained allocation/overflow pressure;
    // restore with hysteresis once the fault phases pass.
    mh::GovernorConfig gc;
    gc.pressure_threshold = 20;
    gc.enter_windows = 3;
    gc.exit_windows = 5;
    gc.degraded_keep = 0.6;
    governor = &mon->add_governor(
        "overload", gc,
        [&] { return churn.pool().exhausted_events() + tb->port("sink").stats().rx_ring_drops; },
        [&gens](bool, double keep) {
          for (auto& g : gens) g->set_keep_fraction(keep);
        });
    // A watchdog trip means the shards are wedged: dump what the recorder
    // has (lock-free path only) and hard-exit — nothing else will.
    mon->watchdog()->set_on_trip([&](const mh::Watchdog::StallReport& report) {
      std::ostringstream os;
      os << "watchdog: no shard progress for " << report.stalled_ms << " ms";
      if (!fr_dump_path.empty()) {
        std::ofstream f(fr_dump_path);
        mon->dump(f, os.str(), /*quiesced=*/false);
      } else {
        mon->dump(std::cerr, os.str(), /*quiesced=*/false);
      }
      std::_Exit(4);
    });
    mon->start(drain_ps);
  }

  tb->run_until(drain_ps);

  // --- traffic report (stdout: byte-identical per seed/shards/flags) -------
  const auto& sink = tb->port("sink").stats();
  std::printf("l2:       %llu forwarded, %llu received at sink, %llu sink ring drops\n",
              static_cast<unsigned long long>(tb->forwarder().forwarded()),
              static_cast<unsigned long long>(sink.rx_packets),
              static_cast<unsigned long long>(sink.rx_ring_drops));
  for (std::size_t i = 0; i < gens.size(); ++i) {
    const auto& g = *gens[i];
    std::printf("rpc%zu:     issued %llu matched %llu timed_out %llu drops %llu shed %llu\n", i,
                static_cast<unsigned long long>(g.issued()),
                static_cast<unsigned long long>(g.matched()),
                static_cast<unsigned long long>(g.timed_out()),
                static_cast<unsigned long long>(g.send_drops()),
                static_cast<unsigned long long>(g.shed_departures()));
  }
  std::printf("pool:     %zu held, %llu exhausted events, low watermark %zu\n", churn.held(),
              static_cast<unsigned long long>(churn.pool().exhausted_events()),
              churn.pool().low_watermark());
  std::printf("faults:   %llu fires total\n",
              static_cast<unsigned long long>(tb->fault_fires()));
  if (inject_leak && churn.leaked() != 1) {
    std::fprintf(stderr, "chaos_soak: --inject-leak leaked %llu buffers, not 1\n",
                 static_cast<unsigned long long>(churn.leaked()));
    return 1;
  }

  if (mon == nullptr) return 0;

  // Final quiesced checker pass, then the health summary (stderr: the
  // byte-identity diff covers stdout only).
  mon->check_now();
  const auto& violations = mon->violations();
  std::fprintf(stderr, "health:   %llu ticks, %llu checks, %zu violations, %llu watchdog trips\n",
               static_cast<unsigned long long>(mon->ticks()),
               static_cast<unsigned long long>(mon->checkers().checks_run()),
               violations.size(), static_cast<unsigned long long>(mon->watchdog_trips()));
  std::fprintf(stderr, "degraded: %llu enters, %llu recovers, active %d\n",
               static_cast<unsigned long long>(governor->enters()),
               static_cast<unsigned long long>(governor->recovers()),
               governor->active() ? 1 : 0);
  if (violations.empty()) return 0;

  std::fprintf(stderr, "INVARIANT VIOLATIONS:\n");
  for (const auto& v : violations)
    std::fprintf(stderr, "  [%s] at %llu ps: %s\n", v.checker.c_str(),
                 static_cast<unsigned long long>(v.when_ps), v.detail.c_str());
  const std::string reason =
      "invariant violation: " + violations.front().checker + ": " + violations.front().detail;
  if (!fr_dump_path.empty()) {
    std::ofstream f(fr_dump_path);
    mon->dump(f, reason);
    std::fprintf(stderr, "flight recorder written to %s\n", fr_dump_path.c_str());
  } else {
    mon->dump(std::cerr, reason);
  }
  return 2;
}
