// Ablation: what does per-packet scripting cost?
//
// The paper's performance claim (Sections 1, 5) rests on LuaJIT compiling
// userscripts to machine code: "running Lua code for each packet is
// feasible and can even be faster than an implementation written in C".
// This harness quantifies the scripting spectrum on our reproduction:
//
//   1. hand-written C++ hot loop          (what LuaJIT-compiled Lua
//                                          approaches, per the paper)
//   2. declarative field-modifier program (a restricted "script" compiled
//                                          to a data structure)
//   3. generic config-driven generator    (the Pktgen-DPDK architecture)
//   4. tree-walking interpreter           (per-packet script WITHOUT a JIT;
//                                          the test oracle, tests/oracle)
//   5. generic bytecode VM                (the same script lowered to
//                                          register bytecode + inline caches,
//                                          trace specialization disabled)
//   6. trace-specialized VM (default)     (hot loops recorded and compiled
//                                          onto the field-modifier engine)
//
// The gap between (4) and (1) is the cost a JIT eliminates — the paper's
// architectural bet made visible. Tier (5) shows how much of it a cheap
// ahead-of-time bytecode compiler recovers without generating machine code;
// tier (6) is our answer to LuaJIT's trace compiler (paper Section 3.2).
//
// Results are also written as machine-readable JSON (per-tier mean/min
// cycles/pkt plus the ratios CI gates on). The three script tiers also
// report their heap allocations per 64-packet batch in the steady state,
// counted by a global operator-new counter; CI requires 0 for the trace
// tier.
//
// Usage: ablation_scripting [json_path]   (default BENCH_ablation_scripting.json)
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "baseline/static_generator.hpp"
#include "bench_util.hpp"
#include "core/device.hpp"
#include "core/task.hpp"
#include "core/field_modifier.hpp"
#include "membuf/buf_array.hpp"
#include "membuf/mempool.hpp"
#include "oracle/tree_walker.hpp"
#include "proto/packet_view.hpp"
#include "script/bindings.hpp"
#include "script/interpreter.hpp"

namespace mc = moongen::core;
namespace mb = moongen::membuf;
namespace mp = moongen::proto;
namespace sc = moongen::script;
using moongen::bench::measure_cycles_per_packet;

namespace {

constexpr std::size_t kPktSize = 60;

mb::Mempool::InitFn udp_prefill() {
  return [](mb::PktBuf& buf) {
    buf.set_length(kPktSize);
    mp::UdpPacketView view{buf.bytes()};
    mp::UdpFillOptions opts;
    opts.packet_length = kPktSize;
    view.fill(opts);
  };
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_ablation_scripting.json";
  moongen::core::pin_to_core(1);  // stable cycle measurements
  std::printf("Ablation: per-packet scripting cost (vary source IP + send)\n");
  std::printf("(paper: LuaJIT-compiled scripts match or beat C, Section 5.2;\n");
  std::printf(" without a JIT the interpretation overhead dominates)\n\n");

  struct TierResult {
    const char* key;
    const char* label;
    moongen::stats::RunningStats stats;
    std::optional<double> allocs_per_batch = std::nullopt;  // script tiers only
  };
  std::vector<TierResult> tiers;

  // 1. Hand-written C++ loop.
  {
    mc::DeviceTable devices;
    auto& queue = devices.config(0, 1, 1).get_tx_queue(0);
    mb::Mempool pool(4096, udp_prefill());
    mb::BufArray bufs(pool, 64);
    mc::Tausworthe rng(1);
    const auto s = measure_cycles_per_packet([&]() -> std::uint64_t {
      std::uint64_t sent = 0;
      while (sent < 256 * 1024) {
        bufs.alloc(kPktSize);
        for (auto* buf : bufs) {
          mp::UdpPacketView view{buf->bytes()};
          view.ip().src_be = mp::hton32(0x0a000001 + rng.next() % 256);
        }
        sent += queue.send(bufs);
      }
      return sent;
    });
    std::printf("  %-44s %8.1f +- %.1f cycles/pkt\n", "hand-written C++ loop", s.mean(),
                s.stddev());
    tiers.push_back({"hand_written_cpp", "hand-written C++ loop", s});
  }

  // 2. Declarative modifier program.
  {
    mc::DeviceTable devices;
    auto& queue = devices.config(0, 1, 1).get_tx_queue(0);
    mb::Mempool pool(4096, udp_prefill());
    mb::BufArray bufs(pool, 64);
    mc::ModifierProgram prog({{.field = {26, 4},
                               .kind = mc::FieldAction::Kind::kRandom,
                               .value = 0x0a000001,
                               .range = 256}});
    const auto s = measure_cycles_per_packet([&]() -> std::uint64_t {
      std::uint64_t sent = 0;
      while (sent < 256 * 1024) {
        bufs.alloc(kPktSize);
        for (auto* buf : bufs) prog.apply(buf->data());
        sent += queue.send(bufs);
      }
      return sent;
    });
    std::printf("  %-44s %8.1f +- %.1f cycles/pkt\n", "declarative modifier program", s.mean(),
                s.stddev());
    tiers.push_back({"modifier_program", "declarative modifier program", s});
  }

  // 3. Generic config-driven generator (Pktgen-DPDK architecture).
  {
    mc::DeviceTable devices;
    auto& dev = devices.config(0, 1, 1);
    moongen::baseline::StaticGenConfig cfg;
    cfg.packet_size = kPktSize;
    cfg.src_ip_mode = moongen::baseline::StaticGenConfig::RangeMode::kRandom;
    cfg.src_ip_count = 256;
    cfg.checksum_offload = false;
    moongen::baseline::StaticGenerator gen(dev, 0, cfg);
    const auto s = measure_cycles_per_packet(
        [&]() -> std::uint64_t { return gen.run_packets(256 * 1024); });
    std::printf("  %-44s %8.1f +- %.1f cycles/pkt\n", "generic config-driven generator",
                s.mean(), s.stddev());
    tiers.push_back({"config_driven", "generic config-driven generator", s});
  }

  // 4/5/6. The same per-packet script, executed by the tree-walking
  // test oracle, by the generic bytecode VM (trace tier disabled) and by
  // the trace-specialized VM (the default engine).
  struct ScriptedTier {
    moongen::stats::RunningStats stats;
    double allocs_per_batch = 0;
  };
  const auto scripted_tier = [](bool tree_walk, bool trace, const char* label) {
    mc::reset_run_state();
    const char* script = R"(
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
    sc::ScriptRuntime runtime(script);
    runtime.master().set_trace(trace);
    // The walker's closures call back into it, so it outlives `run`.
    std::optional<sc::oracle::TreeWalker> walker;
    if (tree_walk) {
      walker.emplace(runtime.master());
      walker->run();
    } else {
      runtime.master().run();
    }
    // The script's devices live in the process-default table.
    auto& dev = mc::DeviceTable::process_default().config(0, 1, 1);
    dev.disconnect();
    dev.get_tx_queue(0).reset();
    // Build the script-side objects once via the bindings.
    auto& interp = runtime.master();
    const auto dev_ud = interp.get_global("device").as_table()->get(
        sc::Table::Key{"config"});
    std::vector<sc::Value> cfg_args{sc::Value(0.0)};
    const auto dev_val = interp.call(dev_ud, cfg_args)[0];
    auto mem_fn = interp.get_global("memory").as_table()->get(sc::Table::Key{"createMemPool"});
    // Pool created through the binding, pre-filled once at setup (the
    // script's init closure runs per buffer, exactly like Listing 2).
    std::vector<sc::Value> mem_args{};
    const auto mem_val = interp.call(mem_fn, mem_args)[0];

    const double n_packets = 64 * 1024;
    std::vector<sc::Value> gq_args{sc::Value(0.0)};
    auto& dev_ref = *dev_val.as_userdata();
    const auto queue_val =
        dev_ref.methods()->methods.at("getTxQueue")(interp, dev_ref, gq_args)[0];
    const auto run_fn = interp.get_global("run");
    const auto run_packets = [&](double n) -> std::uint64_t {
      std::vector<sc::Value> run_args{queue_val, mem_val, sc::Value(n)};
      auto r = interp.call(run_fn, std::move(run_args));
      return static_cast<std::uint64_t>(r.empty() ? 0 : r[0].as_number());
    };
    // Allocations are counted over the measured repetitions (those after
    // the warm-up ones) and compared with a call of `run` over half the
    // packets, which makes the same per-call allocations (argument and
    // result vectors, the script's bufArray and its per-buffer wrappers):
    // the difference is what the second half's batches allocate.
    constexpr int kReps = 9;
    constexpr int kWarmup = 2;
    int rep = 0;
    std::uint64_t measured_allocs = 0;
    ScriptedTier out;
    out.stats = measure_cycles_per_packet([&]() -> std::uint64_t {
      const std::uint64_t before = moongen::bench::allocations();
      const std::uint64_t sent = run_packets(n_packets);
      if (rep++ >= kWarmup) measured_allocs += moongen::bench::allocations() - before;
      return sent;
    }, kReps, kWarmup);
    const std::uint64_t before = moongen::bench::allocations();
    run_packets(n_packets / 2);
    const auto half_run = static_cast<double>(moongen::bench::allocations() - before);
    out.allocs_per_batch =
        (static_cast<double>(measured_allocs) / kReps - half_run) / (n_packets / 2 / 64);
    std::printf("  %-44s %8.1f +- %.1f cycles/pkt\n", label, out.stats.mean(),
                out.stats.stddev());
    return out;
  };

  const auto [tree_walk, tree_walk_allocs] =
      scripted_tier(true, false, "tree-walking interpreter (no JIT)");
  tiers.push_back(
      {"tree_walker", "tree-walking interpreter (no JIT)", tree_walk, tree_walk_allocs});
  const auto [vm, vm_allocs] = scripted_tier(false, false, "generic bytecode VM (no traces)");
  tiers.push_back({"vm_generic", "generic bytecode VM (no traces)", vm, vm_allocs});
  const auto [traced, traced_allocs] =
      scripted_tier(false, true, "trace-specialized VM (default)");
  tiers.push_back({"vm_trace", "trace-specialized VM (default)", traced, traced_allocs});

  // Ratio of per-engine minima: on a shared machine the minimum is the
  // cleanest estimate of intrinsic cost (noise only ever adds cycles), so
  // the ratio is stable enough to gate on in CI.
  std::printf("\nscripting speedup: compiled VM is %.2fx faster than the tree-walker\n",
              tree_walk.min() / vm.min());
  std::printf("trace tier: %.1f cycles/pkt min (%.2fx over the generic VM)\n", traced.min(),
              vm.min() / traced.min());
  std::printf("heap allocations per 64-packet batch: tree-walker %g, generic VM %g, "
              "trace tier %g\n",
              tree_walk_allocs, vm_allocs, traced_allocs);
  std::printf("(the paper measured LuaJIT's scripted loop at ~101 cycles/pkt —\n"
              " line rate at 1.5 GHz)\n");

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"moongen-bench-ablation-scripting-v1\",\n");
  std::fprintf(f,
               "  \"workload\": \"per-packet source-IP randomization + send, 64-packet batches, "
               "same logic at every tier\",\n");
  std::fprintf(f, "  \"tiers\": {\n");
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const auto& t = tiers[i];
    std::fprintf(f,
                 "    \"%s\": {\"label\": \"%s\", \"mean_cycles_per_pkt\": %.2f, "
                 "\"min_cycles_per_pkt\": %.2f, \"stddev\": %.2f",
                 t.key, t.label, t.stats.mean(), t.stats.min(), t.stats.stddev());
    if (t.allocs_per_batch) std::fprintf(f, ", \"allocs_per_batch\": %g", *t.allocs_per_batch);
    std::fprintf(f, "}%s\n", i + 1 < tiers.size() ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"ratios\": {\n");
  std::fprintf(f, "    \"tree_walker_over_vm_generic\": %.2f,\n", tree_walk.min() / vm.min());
  std::fprintf(f, "    \"tree_walker_over_vm_trace\": %.2f,\n", tree_walk.min() / traced.min());
  std::fprintf(f, "    \"vm_generic_over_vm_trace\": %.2f\n", vm.min() / traced.min());
  std::fprintf(f, "  },\n");
  std::fprintf(f,
               "  \"note\": \"ratios and gates use per-tier minima: noise on a shared host only "
               "ever adds cycles. Numbers are measured on this host, never extrapolated.\"\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
