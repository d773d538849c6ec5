// Tests for the RPC workload plane: codec round-trips and garbage
// tolerance, the flat in-flight table (fuzzed against a reference map,
// backward-shift deletion, timed eviction), latency aggregation and
// merge, and end-to-end open/closed-loop runs on the Testbed — including
// the determinism contract (same seed => identical results, across
// repeated runs and shard counts, with and without faults).
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/fault.hpp"
#include "rpc/codec.hpp"
#include "rpc/inflight.hpp"
#include "rpc/latency_recorder.hpp"
#include "rpc/open_loop.hpp"
#include "rpc/server_model.hpp"
#include "stats/samplers.hpp"
#include "testbed/scenario.hpp"
#include "topologies.hpp"

namespace mf = moongen::fault;
namespace mr = moongen::rpc;
namespace ms = moongen::sim;
namespace mtb = moongen::testbed;
namespace topo = moongen::topologies;

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

TEST(RpcCodec, FieldsRoundTripThroughTemplate) {
  mr::RpcTemplateOptions opts;
  opts.frame_size = 96;
  const auto frame = mr::make_rpc_frame(opts);
  std::vector<std::uint8_t> bytes = *frame.data;
  mr::write_rpc_fields({bytes.data(), bytes.size()}, mr::Op::kSet, 0xDEADBEEFull, 1234,
                       5'000'000, 7);
  const auto d = mr::decode({bytes.data(), bytes.size()});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->op, mr::Op::kSet);
  EXPECT_EQ(d->seq, 0xDEADBEEFull);
  EXPECT_EQ(d->key, 1234u);
  EXPECT_EQ(d->tx_time_ps, 5'000'000u);
  EXPECT_EQ(d->value_len, 7u);
}

TEST(RpcCodec, ResponseOpcodesDecodeAndClassify) {
  mr::RpcTemplateOptions opts;
  opts.opcode = mr::Op::kGetHit;
  const auto frame = mr::make_rpc_frame(opts);
  std::vector<std::uint8_t> bytes = *frame.data;
  mr::write_rpc_fields({bytes.data(), bytes.size()}, mr::Op::kGetHit, 9, 10, 11);
  const auto d = mr::decode({bytes.data(), bytes.size()});
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(mr::is_response(d->op));
  EXPECT_FALSE(mr::is_response(mr::Op::kGet));
  EXPECT_FALSE(mr::is_response(mr::Op::kSet));
}

TEST(RpcCodec, DecodeRejectsGarbage) {
  // Not a UDP stack at all.
  std::vector<std::uint8_t> zeros(100, 0);
  EXPECT_FALSE(mr::decode({zeros.data(), zeros.size()}).has_value());

  const auto frame = mr::make_rpc_frame({});
  std::vector<std::uint8_t> good = *frame.data;
  mr::write_rpc_fields({good.data(), good.size()}, mr::Op::kGet, 1, 2, 3);

  // Truncated payload: the RPC header does not fit.
  EXPECT_FALSE(mr::decode({good.data(), 60}).has_value());

  // Corrupted magic.
  std::vector<std::uint8_t> bad_magic = good;
  bad_magic[42] ^= 0xFF;
  EXPECT_FALSE(mr::decode({bad_magic.data(), bad_magic.size()}).has_value());

  // Opcode outside the protocol.
  std::vector<std::uint8_t> bad_op = good;
  bad_op[46] = 9;
  EXPECT_FALSE(mr::decode({bad_op.data(), bad_op.size()}).has_value());
}

TEST(RpcCodec, TemplateRejectsUndersizedFrame) {
  mr::RpcTemplateOptions opts;
  opts.frame_size = mr::RpcPacketView::kHeaderStack - 1;
  EXPECT_THROW(mr::make_rpc_frame(opts), std::invalid_argument);
}

TEST(RpcCodec, FramePoolRoundRobinReusesBuffers) {
  const auto tmpl = mr::make_rpc_frame({});
  mr::FramePool pool(tmpl, 4);
  EXPECT_EQ(pool.size(), 4u);
  auto [s0, f0] = pool.acquire();
  const auto* first = s0.data();
  for (int i = 0; i < 3; ++i) (void)pool.acquire();
  auto [s4, f4] = pool.acquire();
  EXPECT_EQ(s4.data(), first);  // wrapped around
  EXPECT_EQ(f4.data->size(), tmpl.data->size());
}

// ---------------------------------------------------------------------------
// InFlightTable
// ---------------------------------------------------------------------------

TEST(InFlightTable, InsertTakeContains) {
  mr::InFlightTable t(64);
  EXPECT_TRUE(t.insert(1, 100, 1000, 5));
  EXPECT_TRUE(t.insert(2, 200, 2000));
  EXPECT_FALSE(t.insert(1, 999, 9999));  // duplicate
  EXPECT_FALSE(t.insert(0, 1, 1));       // reserved empty marker
  EXPECT_TRUE(t.contains(1));
  EXPECT_FALSE(t.contains(3));
  EXPECT_EQ(t.size(), 2u);

  const auto rec = t.take(1);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->key, 100u);
  EXPECT_EQ(rec->tx_time_ps, 1000u);
  EXPECT_EQ(rec->aux, 5u);
  EXPECT_FALSE(t.contains(1));
  EXPECT_FALSE(t.take(1).has_value());
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.peak(), 2u);
}

TEST(InFlightTable, RefusesInsertsAtTheOccupancyCeiling) {
  mr::InFlightTable t(4);  // 16 slots, ceiling at 14
  std::size_t inserted = 0;
  for (std::uint64_t s = 1; s <= 16; ++s)
    if (t.insert(s, s, s)) ++inserted;
  EXPECT_EQ(inserted, 14u);
  EXPECT_EQ(t.size(), 14u);
  (void)t.take(3);
  EXPECT_TRUE(t.insert(99, 1, 1));  // room again after a removal
}

TEST(InFlightTable, FuzzMatchesReferenceMap) {
  // Dense sequence range on a small table: plenty of collisions and
  // backward shifts. The table must agree with std::unordered_map on
  // every operation's outcome.
  mr::InFlightTable t(1024);  // 2048 slots
  std::unordered_map<std::uint64_t, std::uint64_t> ref;  // seq -> key
  moongen::stats::SplitMix64 rng(2024);
  for (int op = 0; op < 50'000; ++op) {
    const std::uint64_t seq = 1 + rng.next() % 1500;
    const auto action = rng.next() % 3;
    if (action == 0 && ref.size() < 1400) {
      const std::uint64_t key = rng.next();
      const bool inserted = t.insert(seq, key, op);
      EXPECT_EQ(inserted, ref.emplace(seq, key).second);
    } else if (action == 1) {
      const auto rec = t.take(seq);
      const auto it = ref.find(seq);
      ASSERT_EQ(rec.has_value(), it != ref.end());
      if (rec.has_value()) {
        EXPECT_EQ(rec->key, it->second);
        ref.erase(it);
      }
    } else {
      EXPECT_EQ(t.contains(seq), ref.count(seq) == 1);
    }
    ASSERT_EQ(t.size(), ref.size());
  }
  for (const auto& [seq, key] : ref) EXPECT_TRUE(t.contains(seq));
}

TEST(InFlightTable, EvictOlderThanReclaimsExactlyTheExpired) {
  mr::InFlightTable t(256);
  for (std::uint64_t s = 1; s <= 200; ++s) ASSERT_TRUE(t.insert(s, s, s));
  std::size_t evicted = 0;
  std::uint64_t newest_evicted = 0;
  auto count = [&](const mr::InFlightTable::Record& r) {
    ++evicted;
    newest_evicted = std::max(newest_evicted, r.tx_time_ps);
  };
  // Entries can shift backwards past the scan position; a second sweep
  // catches stragglers (the documented two-sweep contract).
  t.evict_older_than(101, count);
  t.evict_older_than(101, count);
  EXPECT_EQ(evicted, 100u);
  EXPECT_LE(newest_evicted, 100u);
  EXPECT_EQ(t.size(), 100u);
  for (std::uint64_t s = 101; s <= 200; ++s) EXPECT_TRUE(t.contains(s));
}

TEST(InFlightTable, EvictFuzzHonorsTheTwoSweepContract) {
  // Randomized regression for the two-sweep contract: under arbitrary
  // interleavings of inserts, takes and evictions on a crowded table
  // (backward-shift deletion constantly moving records across the scan
  // position), a double sweep must reclaim *exactly* the expired records —
  // each exactly once, with none skipped and no survivor younger than the
  // deadline left behind.
  mr::InFlightTable t(512);  // 1024 slots; population pushed near capacity
  std::unordered_map<std::uint64_t, std::uint64_t> ref;  // seq -> tx_time
  moongen::stats::SplitMix64 rng(77);
  std::uint64_t next_seq = 1;
  std::uint64_t clock = 0;
  for (int round = 0; round < 400; ++round) {
    // Churn phase: mostly inserts (fresh, monotonically later tx times)
    // with takes mixed in so slots vacate and refill mid-stream.
    for (int op = 0; op < 120; ++op) {
      ++clock;
      if (rng.next() % 4 != 0) {
        if (ref.size() >= 800) continue;  // stay under the ceiling
        const std::uint64_t seq = next_seq++;
        ASSERT_TRUE(t.insert(seq, seq, clock));
        ref.emplace(seq, clock);
      } else if (!ref.empty()) {
        // Take a pseudo-random live entry.
        auto it = ref.begin();
        std::advance(it, static_cast<long>(rng.next() % ref.size()));
        const auto rec = t.take(it->first);
        ASSERT_TRUE(rec.has_value());
        EXPECT_EQ(rec->tx_time_ps, it->second);
        ref.erase(it);
      }
    }
    // Eviction phase: a deadline somewhere inside the live time range.
    const std::uint64_t deadline = clock > 60 ? clock - rng.next() % 60 : clock;
    std::unordered_map<std::uint64_t, int> evicted;  // seq -> times seen
    auto on_evict = [&](const mr::InFlightTable::Record& r) {
      EXPECT_LT(r.tx_time_ps, deadline);
      ++evicted[r.seq];
    };
    t.evict_older_than(deadline, on_evict);
    t.evict_older_than(deadline, on_evict);
    for (auto it = ref.begin(); it != ref.end();) {
      if (it->second < deadline) {
        EXPECT_EQ(evicted[it->first], 1) << "seq " << it->first;  // exactly once
        evicted.erase(it->first);
        it = ref.erase(it);
      } else {
        EXPECT_TRUE(t.contains(it->first)) << "seq " << it->first;
        ++it;
      }
    }
    EXPECT_TRUE(evicted.empty()) << "evicted a record the model never expired";
    ASSERT_EQ(t.size(), ref.size());
  }
}

// ---------------------------------------------------------------------------
// LatencyRecorder
// ---------------------------------------------------------------------------

TEST(LatencyRecorder, MergeEqualsCombinedStream) {
  mr::LatencyRecorder a;
  mr::LatencyRecorder b;
  mr::LatencyRecorder all;
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    const std::uint64_t ps = i * 10'000;  // 10ns .. 10us
    (i % 2 == 0 ? a : b).record_ps(ps);
    all.record_ps(ps);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.p50_ns(), all.p50_ns());
  EXPECT_EQ(a.p99_ns(), all.p99_ns());
  EXPECT_EQ(a.min_ns(), all.min_ns());
  EXPECT_EQ(a.max_ns(), all.max_ns());
  EXPECT_NEAR(a.mean_ns(), all.mean_ns(), 1e-6);
  EXPECT_NEAR(a.stddev_ns(), all.stddev_ns(), 1e-6);
}

TEST(LatencyRecorder, WritesMachineReadableJson) {
  mr::LatencyRecorder r;
  r.record_ps(1'000'000);
  r.record_ps(2'000'000);
  std::ostringstream os;
  r.write_json(os, "open");
  const std::string json = os.str();
  EXPECT_NE(json.find("\"label\": \"open\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"p99_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"p999_ns\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end on the Testbed
// ---------------------------------------------------------------------------

namespace {

// Client and server on a duplex cable, `copies` times over: copy k has
// devices 2k (client) and 2k+1 (server) and seeds of its own, and its
// names after the first copy end in k. Each copy is one component.
std::unique_ptr<mtb::Testbed> pair_bed(int shards, const mf::FaultSpec& spec = {},
                                       int copies = 1) {
  mtb::Scenario s;
  s.seed(1).shards(shards).telemetry(false).faults(spec);
  for (int k = 0; k < copies; ++k) {
    const std::uint64_t seed = 100 * static_cast<std::uint64_t>(k);
    topo::rpc_pair(s, {.first_id = 2 * k,
                       .suffix = k == 0 ? "" : std::to_string(k),
                       .device_seeds = {seed + 10, seed + 20},
                       .link_seeds = {seed + 30}});
  }
  return s.build();
}

struct E2eResult {
  std::uint64_t issued = 0;
  std::uint64_t matched = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t send_drops = 0;
  std::uint64_t garbage = 0;
  std::size_t inflight_after = 0;
  std::size_t peak_inflight = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t count = 0;
};

/// An open-loop run on pair_bed: one result per copy, plus the effective
/// shard count.
struct OpenRun {
  std::vector<E2eResult> copies;
  std::size_t shards = 0;
};

// Copy k's server seeds its service times with 7 + k, and its client its
// workload with 42 + k.
OpenRun run_open(int shards, const mf::FaultSpec& spec, double offered_rps, double service_us,
                 ms::SimTime end_ps, ms::SimTime timeout_ps, int copies = 1) {
  auto tb = pair_bed(shards, spec, copies);
  std::vector<std::unique_ptr<mr::ServerModel>> servers;
  std::vector<std::unique_ptr<mr::LatencyRecorder>> recorders;
  std::vector<std::unique_ptr<mr::OpenLoopGenerator>> gens;
  for (int k = 0; k < copies; ++k) {
    mr::ServerConfig sc;
    sc.workers = 1;
    sc.service = mr::ServerConfig::Service::kExponential;
    sc.service_mean_ps = service_us * static_cast<double>(ms::kPsPerUs);
    sc.seed = 7 + static_cast<std::uint64_t>(k);
    servers.push_back(std::make_unique<mr::ServerModel>(tb->port(2 * k + 1), sc));
    // Arm the server's stall site so `stall@rpc` rules are live probes —
    // the testbed's fault-rule validation rejects rules with no probe site.
    if (tb->has_faults()) {
      servers.back()->install_faults(*tb->fault_plane(tb->shard_of(2 * k + 1)),
                                     "rpc.s" + std::to_string(k));
    }
    recorders.push_back(std::make_unique<mr::LatencyRecorder>());
    mr::WorkloadConfig wc;
    wc.offered_rps = offered_rps;
    wc.seed = 42 + static_cast<std::uint64_t>(k);
    wc.warmup_ps = end_ps / 10;
    wc.cooldown_ps = end_ps / 20;
    wc.timeout_ps = timeout_ps;
    gens.push_back(
        std::make_unique<mr::OpenLoopGenerator>(tb->port(2 * k), *recorders.back(), wc));
    gens.back()->start(0, end_ps);
  }
  tb->run_until(end_ps + (timeout_ps > 0 ? 3 * timeout_ps : 5 * ms::kPsPerMs));

  OpenRun run;
  run.shards = tb->shard_count();
  for (int k = 0; k < copies; ++k) {
    const mr::OpenLoopGenerator& gen = *gens[static_cast<std::size_t>(k)];
    const mr::LatencyRecorder& recorder = *recorders[static_cast<std::size_t>(k)];
    E2eResult out;
    out.issued = gen.issued();
    out.matched = gen.matched();
    out.timed_out = gen.timed_out();
    out.send_drops = gen.send_drops();
    out.garbage = gen.garbage();
    out.inflight_after = gen.inflight();
    out.peak_inflight = gen.peak_inflight();
    out.p50_ns = recorder.p50_ns();
    out.p99_ns = recorder.p99_ns();
    out.count = recorder.count();
    run.copies.push_back(out);
  }
  return run;
}

}  // namespace

TEST(RpcPlane, OpenLoopMatchesEveryRequestUnderLightLoad) {
  const auto r = run_open(1, {}, 50'000.0, 2.0, 50 * ms::kPsPerMs, 0).copies[0];
  EXPECT_GT(r.issued, 2000u);
  EXPECT_EQ(r.matched, r.issued);
  EXPECT_EQ(r.timed_out, 0u);
  EXPECT_EQ(r.send_drops, 0u);
  EXPECT_EQ(r.garbage, 0u);
  EXPECT_EQ(r.inflight_after, 0u);
  EXPECT_GT(r.count, 0u);
  EXPECT_GT(r.p50_ns, 0u);
}

TEST(RpcPlane, RunsAreByteIdenticalAcrossRepeatsAndShards) {
  // Two client/server pairs: two shards at --shards 2 and 4.
  const auto spec = mf::FaultSpec::parse("seed=3;loss@wire:p=0.005;stall@rpc:p=0.002,param=1e8");
  const auto run = [&spec](int shards) {
    return run_open(shards, spec, 80'000.0, 4.0, 60 * ms::kPsPerMs, 5 * ms::kPsPerMs, 2);
  };
  const OpenRun base = run(1);
  EXPECT_EQ(base.shards, 1u);
  const OpenRun again = run(1);
  const OpenRun two = run(2);
  const OpenRun four = run(4);
  EXPECT_EQ(two.shards, 2u);
  EXPECT_EQ(four.shards, 2u);
  for (const OpenRun* r : {&again, &two, &four}) {
    ASSERT_EQ(r->copies.size(), 2u);
    for (std::size_t k = 0; k < 2; ++k) {
      SCOPED_TRACE("copy " + std::to_string(k) + " on " + std::to_string(r->shards) + " shards");
      const E2eResult& got = r->copies[k];
      const E2eResult& want = base.copies[k];
      EXPECT_EQ(got.issued, want.issued);
      EXPECT_EQ(got.matched, want.matched);
      EXPECT_EQ(got.timed_out, want.timed_out);
      EXPECT_EQ(got.p50_ns, want.p50_ns);
      EXPECT_EQ(got.p99_ns, want.p99_ns);
      EXPECT_EQ(got.count, want.count);
    }
  }
}

TEST(RpcPlane, LossFaultsTimeOutAndEveryEntryIsReclaimed) {
  const auto spec = mf::FaultSpec::parse("seed=5;loss@wire:p=0.01");
  const auto r = run_open(1, spec, 60'000.0, 3.0, 80 * ms::kPsPerMs, 5 * ms::kPsPerMs).copies[0];
  EXPECT_GT(r.timed_out, 0u);
  EXPECT_LT(r.matched, r.issued);
  // Conservation: every issued request was matched, timed out, or dropped
  // at send; nothing leaks in the table once the sweeps have drained.
  EXPECT_EQ(r.matched + r.timed_out + r.send_drops, r.issued);
  EXPECT_EQ(r.inflight_after, 0u);
}

TEST(RpcPlane, ClosedLoopBacklogIsBoundedByUsers) {
  auto tb = pair_bed(1);
  mr::ServerConfig sc;
  sc.workers = 1;
  sc.service = mr::ServerConfig::Service::kFixed;
  sc.service_mean_ps = 50 * ms::kPsPerUs;  // deliberately slow: 20 krps
  sc.seed = 7;
  mr::ServerModel server(tb->port("server"), sc);

  mr::LatencyRecorder recorder;
  mr::WorkloadConfig wc;
  wc.offered_rps = 1e6;  // irrelevant for the closed loop's backlog bound
  wc.seed = 42;
  mr::ClosedLoopConfig cc;
  cc.users = 8;
  cc.think_mean_ps = 10.0 * static_cast<double>(ms::kPsPerUs);
  mr::ClosedLoopGenerator gen(tb->port("client"), recorder, wc, cc);
  gen.start(0, 30 * ms::kPsPerMs);
  tb->run_until(35 * ms::kPsPerMs);

  EXPECT_GT(gen.issued(), 100u);
  EXPECT_LE(gen.peak_inflight(), cc.users);
  EXPECT_EQ(gen.matched(), gen.issued());
}

TEST(RpcPlane, OpenLoopTailExceedsClosedLoopNearSaturation) {
  // Same offered load (120 krps) against the same server (125 krps
  // capacity). The open loop keeps departing while queues build; the
  // closed loop's 16 users throttle. The open p99 must be strictly worse.
  const ms::SimTime end_ps = 300 * ms::kPsPerMs;
  const auto open = run_open(1, {}, 120'000.0, 8.0, end_ps, 0).copies[0];

  auto tb = pair_bed(1);
  mr::ServerConfig sc;
  sc.workers = 1;
  sc.service = mr::ServerConfig::Service::kExponential;
  sc.service_mean_ps = 8.0 * static_cast<double>(ms::kPsPerUs);
  sc.seed = 7;
  mr::ServerModel server(tb->port("server"), sc);
  mr::LatencyRecorder recorder;
  mr::WorkloadConfig wc;
  wc.offered_rps = 120'000.0;
  wc.seed = 42;
  wc.warmup_ps = end_ps / 10;
  wc.cooldown_ps = end_ps / 20;
  mr::ClosedLoopConfig cc;
  cc.users = 16;
  cc.think_mean_ps = static_cast<double>(cc.users) / 120'000.0 * 1e12;
  mr::ClosedLoopGenerator gen(tb->port("client"), recorder, wc, cc);
  gen.start(0, end_ps);
  tb->run_until(end_ps + 5 * ms::kPsPerMs);

  ASSERT_GT(open.count, 1000u);
  ASSERT_GT(recorder.count(), 1000u);
  EXPECT_GT(open.p99_ns, recorder.p99_ns());
}

TEST(RpcPlane, ServerCacheMissesAreReported) {
  auto tb = pair_bed(1);
  mr::ServerConfig sc;
  sc.workers = 2;
  sc.service = mr::ServerConfig::Service::kFixed;
  sc.service_mean_ps = 2 * ms::kPsPerUs;
  sc.cache_keys = 8;  // keys >= 8 miss
  sc.seed = 7;
  mr::ServerModel server(tb->port("server"), sc);

  mr::LatencyRecorder recorder;
  mr::WorkloadConfig wc;
  wc.offered_rps = 50'000.0;
  wc.key_space = 64;
  wc.zipf_skew = 0.0;  // uniform keys: ~7/8 of GETs miss
  wc.get_fraction = 1.0;
  wc.seed = 42;
  mr::OpenLoopGenerator gen(tb->port("client"), recorder, wc);
  gen.start(0, 20 * ms::kPsPerMs);
  tb->run_until(25 * ms::kPsPerMs);

  EXPECT_GT(server.misses(), 0u);
  EXPECT_GT(server.completed(), 0u);
  EXPECT_EQ(gen.matched(), gen.issued());  // misses still get responses
}
