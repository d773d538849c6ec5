// Tests for the telemetry subsystem: log-linear histograms, the metric
// registry and the component readers it holds, and the JSON writers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/task.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/log_linear_histogram.hpp"
#include "telemetry/registry.hpp"

namespace mc = moongen::core;
namespace mt = moongen::telemetry;

// ---------------------------------------------------------------------------
// LogLinearHistogram
// ---------------------------------------------------------------------------

TEST(LogLinearHistogram, SmallValuesGetUnitBuckets) {
  mt::LogLinearHistogram h({.sub_bucket_bits = 5, .max_value = 1'000'000});
  // Below 2^5 every value has its own bucket.
  for (std::uint64_t v = 0; v < 32; ++v) {
    EXPECT_EQ(h.bucket_lower(h.index_for(v)), v) << "v=" << v;
    EXPECT_EQ(h.bucket_width(h.index_for(v)), 1u) << "v=" << v;
  }
}

TEST(LogLinearHistogram, IndexRoundTripAndRelativeError) {
  mt::LogLinearHistogram h({.sub_bucket_bits = 5, .max_value = 10'000'000'000ull});
  std::uint64_t prev_lower = 0;
  bool first = true;
  for (std::uint64_t v = 1; v < h.config().max_value; v = v * 3 / 2 + 1) {
    const auto i = h.index_for(v);
    const auto lo = h.bucket_lower(i);
    const auto w = h.bucket_width(i);
    ASSERT_LE(lo, v) << "v=" << v;
    ASSERT_LT(v, lo + w) << "v=" << v;
    // Relative error bound: bucket no wider than value * 2^(1-bits).
    ASSERT_LE(w - 1, v / 16) << "v=" << v;
    // Lower edges are monotonic in the index.
    if (!first) {
      ASSERT_GT(lo + w, prev_lower);
    }
    prev_lower = lo;
    first = false;
  }
}

TEST(LogLinearHistogram, BucketLowersAreMonotonicAndCoverRange) {
  mt::LogLinearHistogram h({.sub_bucket_bits = 4, .max_value = 1 << 20});
  for (std::size_t i = 1; i < h.bucket_count(); ++i) {
    ASSERT_EQ(h.bucket_lower(i), h.bucket_lower(i - 1) + h.bucket_width(i - 1)) << "i=" << i;
    ASSERT_EQ(h.index_for(h.bucket_lower(i)), i) << "i=" << i;
  }
}

TEST(LogLinearHistogram, RecordTracksMomentsAndOverflow) {
  mt::LogLinearHistogram h({.sub_bucket_bits = 5, .max_value = 1000});
  h.record(10);
  h.record(20, 2);
  h.record(5000);  // >= max_value -> overflow bin
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 5000u);
  EXPECT_DOUBLE_EQ(h.sum(), 10.0 + 40.0 + 5000.0);
}

TEST(LogLinearHistogram, PercentileMatchesFixedBinHistogram) {
  // Acceptance: identical samples into a log-linear geometry and a unit-bin
  // linear one; the log-linear percentile must be the lower edge of the
  // bucket containing the exact percentile value.
  mt::LogLinearHistogram ll({.sub_bucket_bits = 5, .max_value = 1 << 20});
  // Bin width 1: percentile == sample value.
  mt::LogLinearHistogram exact(mt::HistogramConfig::linear(1, (1 << 20) - 1));
  std::uint64_t v = 1;
  for (int i = 0; i < 20'000; ++i) {
    v = (v * 48271) % 262'139;  // deterministic spread over [1, 2^18)
    ll.record(v);
    exact.record(v);
  }
  for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0}) {
    const auto e = exact.percentile(p);
    const auto l = ll.percentile(p);
    EXPECT_EQ(l, ll.bucket_lower(ll.index_for(e))) << "p=" << p;
    EXPECT_LE(l, e) << "p=" << p;
    EXPECT_GE(l + ll.bucket_width(ll.index_for(e)), e) << "p=" << p;
  }
  EXPECT_EQ(ll.median(), ll.percentile(50.0));
}

TEST(LogLinearHistogram, MergeAccumulatesIdenticalGeometry) {
  mt::HistogramConfig cfg{.sub_bucket_bits = 5, .max_value = 1000};
  mt::LogLinearHistogram a(cfg);
  mt::LogLinearHistogram b(cfg);
  a.record(10);
  b.record(10);
  b.record(900);
  b.record(5000);
  a.merge(b);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.overflow(), 1u);
  EXPECT_EQ(a.bucket(a.index_for(10)), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 5000u);
}

TEST(LogLinearHistogram, MergeRejectsGeometryMismatch) {
  mt::LogLinearHistogram a({.sub_bucket_bits = 5, .max_value = 1000});
  mt::LogLinearHistogram bits({.sub_bucket_bits = 4, .max_value = 1000});
  mt::LogLinearHistogram range({.sub_bucket_bits = 5, .max_value = 2000});
  mt::LogLinearHistogram unit({.sub_bucket_bits = 5, .max_value = 1000, .unit = 2});
  EXPECT_THROW(a.merge(bits), std::invalid_argument);
  EXPECT_THROW(a.merge(range), std::invalid_argument);
  EXPECT_THROW(a.merge(unit), std::invalid_argument);
}

TEST(LogLinearHistogram, RejectsBadConfig) {
  EXPECT_THROW(mt::LogLinearHistogram({.sub_bucket_bits = 0}), std::invalid_argument);
  EXPECT_THROW(mt::LogLinearHistogram({.sub_bucket_bits = 21}), std::invalid_argument);
  EXPECT_THROW(mt::LogLinearHistogram({.sub_bucket_bits = 5, .max_value = 0}),
               std::invalid_argument);
}

TEST(LogLinearHistogram, LinearGeometryKeepsFixedBinEdges) {
  // linear(64, 1024): 64-wide bins over [0, 1088), overflow from 1088 on.
  mt::LogLinearHistogram h(mt::HistogramConfig::linear(64, 1024));
  EXPECT_EQ(h.config().unit, 64u);
  EXPECT_EQ(h.config().max_value, 1088u);
  ASSERT_EQ(h.bucket_count(), 17u);
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    ASSERT_EQ(h.bucket_lower(i), 64 * i) << "i=" << i;
    ASSERT_EQ(h.bucket_width(i), 64u) << "i=" << i;
  }
  h.record(1087);
  EXPECT_EQ(h.bucket(16), 1u);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_EQ(h.percentile(100), 1024u);
  h.record(1088);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.percentile(100), 1088u);  // overflow reports max_value
  EXPECT_EQ(h.percentile(0), 1024u);
}

TEST(LogLinearHistogram, RejectsMoreThanTwoToTheTwentyBuckets) {
  mt::LogLinearHistogram widest(mt::HistogramConfig::linear(1, (1 << 20) - 1));
  EXPECT_EQ(widest.bucket_count(), mt::LogLinearHistogram::kMaxBuckets);
  try {
    mt::LogLinearHistogram h(mt::HistogramConfig::linear(100, 5'000'000'000ull));
    FAIL() << "5*10^7 bins were allocated";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bin width 100 "), std::string::npos) << what;
    EXPECT_NE(what.find(" 5000000100 "), std::string::npos) << what;
    EXPECT_NE(what.find(" 50000001 buckets"), std::string::npos) << what;
  }
}

TEST(LogLinearHistogram, PrintMatchesStatsHistogramContract) {
  mt::LogLinearHistogram h({.sub_bucket_bits = 5, .max_value = 1000});
  for (int i = 0; i < 3; ++i) h.record(10);
  h.record(2000);
  std::ostringstream os;
  h.print(os);
  EXPECT_NE(os.str().find("10"), std::string::npos);
  EXPECT_NE(os.str().find("75.00%"), std::string::npos);
  EXPECT_NE(os.str().find("overflow"), std::string::npos);
}

// ---------------------------------------------------------------------------
// MetricRegistry: a table of readers
// ---------------------------------------------------------------------------

TEST(MetricRegistry, ResolvingSameNameYieldsSameSlot) {
  // Readers registered under one name form one metric: counters sum,
  // histograms merge.
  mt::MetricRegistry reg;
  std::uint64_t a = 5;
  std::uint64_t b = 2;
  mt::LogLinearHistogram ha{mt::HistogramConfig{}};
  mt::LogLinearHistogram hb{mt::HistogramConfig{}};
  ha.record(100);
  hb.record(200);
  mt::Binding one;
  mt::Binding two;
  one.open(reg);
  two.open(reg);
  one.counter("a.packets", [&a] { return a; });
  two.counter("a.packets", [&b] { return b; });
  one.gauge("a.rate", [] { return 2.5; });
  one.histogram("a.latency", [&ha] { return ha; });
  two.histogram("a.latency", [&hb] { return hb; });
  EXPECT_EQ(reg.counter_value("a.packets"), 7u);
  a = 10;  // a reader reads its field as it stands
  EXPECT_EQ(reg.counter_value("a.packets"), 12u);
  EXPECT_EQ(reg.gauge_value("a.rate"), 2.5);
  EXPECT_EQ(reg.histogram_merged("a.latency").total(), 2u);
  EXPECT_EQ(reg.metric_count(), 3u);
}

TEST(MetricRegistry, HistogramGeometryConflictThrows) {
  mt::MetricRegistry reg;
  const mt::LogLinearHistogram base({.sub_bucket_bits = 5, .max_value = 1000});
  const mt::LogLinearHistogram bits({.sub_bucket_bits = 4, .max_value = 1000});
  const mt::LogLinearHistogram max({.sub_bucket_bits = 5, .max_value = 9999});
  const mt::LogLinearHistogram unit({.sub_bucket_bits = 5, .max_value = 1000, .unit = 10});
  mt::Binding b;
  b.open(reg);
  b.histogram("lat", [&base] { return base; });
  // Same geometry: fine. Different geometry: the readers could never merge.
  EXPECT_NO_THROW(b.histogram("lat", [&base] { return base; }));
  EXPECT_THROW(b.histogram("lat", [&bits] { return bits; }), std::invalid_argument);
  EXPECT_THROW(b.histogram("lat", [&max] { return max; }), std::invalid_argument);
  EXPECT_THROW(b.histogram("lat", [&unit] { return unit; }), std::invalid_argument);
}

TEST(MetricRegistry, SnapshotIsNameSortedAndConsistent) {
  mt::MetricRegistry reg;
  std::uint64_t z = 7;
  std::uint64_t a = 3;
  mt::LogLinearHistogram lat{mt::HistogramConfig{}};
  lat.record(42);
  mt::Binding b;
  b.open(reg);
  b.counter("z.count", [&z] { return z; });
  b.counter("a.count", [&a] { return a; });
  b.gauge("m.rate", [] { return 1.5; });
  b.histogram("lat", [&lat] { return lat; });
  const auto snap = reg.snapshot(1234);
  EXPECT_EQ(snap.timestamp_ns, 1234u);
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a.count");
  EXPECT_EQ(snap.counters[0].value, 3u);
  EXPECT_EQ(snap.counters[1].name, "z.count");
  EXPECT_EQ(snap.counters[1].value, 7u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 1.5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].hist.total(), 1u);
  // The snapshot is a copy: later updates don't retro-change it.
  a += 100;
  EXPECT_EQ(snap.counters[0].value, 3u);
  EXPECT_EQ(reg.counter_value("a.count"), 103u);
}

TEST(MetricRegistry, ADestroyedComponentLeavesItsFinalValues) {
  // A component's Binding dies with it; a later snapshot still reports the
  // totals its readers returned last, and a live reader of the same
  // counter name adds to them.
  struct Component {
    std::uint64_t frames = 0;
    double level = 0.0;
    mt::LogLinearHistogram lat{mt::HistogramConfig{}};
    mt::Binding telemetry;
    void bind(mt::MetricRegistry& reg) {
      telemetry.open(reg);
      telemetry.counter("c.frames", [this] { return frames; });
      telemetry.gauge("c.level", [this] { return level; });
      telemetry.histogram("c.lat", [this] { return lat; });
    }
  };
  mt::MetricRegistry reg;
  auto gone = std::make_unique<Component>();
  gone->bind(reg);
  gone->frames = 40;
  gone->level = 2.5;
  gone->lat.record(7);
  gone.reset();
  EXPECT_EQ(reg.counter_value("c.frames"), 40u);
  EXPECT_EQ(reg.gauge_value("c.level"), 2.5);
  EXPECT_EQ(reg.histogram_merged("c.lat").total(), 1u);

  Component live;
  live.bind(reg);  // the gauge's only live reader again
  live.frames = 2;
  live.level = -1.0;
  live.lat.record(9);
  EXPECT_EQ(reg.counter_value("c.frames"), 42u);
  EXPECT_EQ(reg.gauge_value("c.level"), -1.0);
  EXPECT_EQ(reg.histogram_merged("c.lat").total(), 2u);
  EXPECT_EQ(reg.metric_count(), 3u);
}

TEST(MetricRegistry, AGaugeHasOneLiveReader) {
  mt::MetricRegistry reg;
  mt::Binding first;
  mt::Binding second;
  first.open(reg);
  second.open(reg);
  first.gauge("g", [] { return 1.0; });
  EXPECT_THROW(second.gauge("g", [] { return 2.0; }), std::invalid_argument);
  EXPECT_THROW(reg.set_gauge("g", 3.0), std::invalid_argument);
  EXPECT_EQ(reg.gauge_value("g"), 1.0);
}

TEST(MetricRegistry, BindingTwiceThrows) {
  mt::MetricRegistry reg;
  mt::MetricRegistry other;
  mt::Binding b;
  b.open(reg);
  EXPECT_THROW(b.open(reg), std::logic_error);
  EXPECT_THROW(b.open(other), std::logic_error);
}

TEST(MetricRegistry, AMovedBindingKeepsItsReaders) {
  mt::MetricRegistry reg;
  std::uint64_t n = 3;
  mt::Binding from;
  from.open(reg);
  from.counter("n", [&n] { return n; });
  mt::Binding to(std::move(from));
  EXPECT_FALSE(from.bound());
  EXPECT_TRUE(to.bound());
  n = 4;
  EXPECT_EQ(reg.counter_value("n"), 4u);
  { mt::Binding drop(std::move(to)); }  // retires the reader at n = 4
  n = 9;
  EXPECT_EQ(reg.counter_value("n"), 4u);
}

TEST(MetricRegistry, PublishedCountersAddUp) {
  mt::MetricRegistry reg;
  EXPECT_EQ(reg.counter_value("runs"), 0u);
  reg.add_counter("runs", 2);
  reg.add_counter("runs", 3);
  EXPECT_EQ(reg.counter_value("runs"), 5u);
}

TEST(Gauge, LastWriterWins) {
  mt::MetricRegistry reg;
  EXPECT_EQ(reg.gauge_value("g"), 0.0);
  reg.set_gauge("g", 3.5);
  reg.set_gauge("g", -7.25);
  EXPECT_EQ(reg.gauge_value("g"), -7.25);
}

// ---------------------------------------------------------------------------
// One instrument with a reader per task
// ---------------------------------------------------------------------------

TEST(ShardedCounter, TaskSetHammerSumsExactly) {
  // N TaskSet tasks each hammer a plain counter of their own, read by one
  // reader per task under one name; after wait() the sum is exact.
  mc::reset_run_state();
  constexpr int kTasks = 8;
  constexpr std::uint64_t kAddsPerTask = 200'000;
  mt::MetricRegistry reg;
  std::vector<std::uint64_t> counts(kTasks);
  std::vector<mt::Binding> readers(kTasks);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    readers[i].open(reg);
    readers[i].counter("hammer", [&counts, i] { return counts[i]; });
  }
  mc::TaskSet tasks;
  for (auto& c : counts) {
    tasks.launch("hammer", [&c] {
      for (std::uint64_t n = 0; n < kAddsPerTask; ++n) ++c;
    });
  }
  tasks.wait();
  EXPECT_EQ(reg.counter_value("hammer"), kTasks * kAddsPerTask);
  EXPECT_EQ(reg.metric_count(), 1u);
}

TEST(ShardedHistogram, ConcurrentRecordsMergeExactly) {
  mc::reset_run_state();
  constexpr int kTasks = 6;
  constexpr std::uint64_t kPerTask = 50'000;
  mt::MetricRegistry reg;
  std::vector<mt::LogLinearHistogram> hists(
      kTasks, mt::LogLinearHistogram({.sub_bucket_bits = 5, .max_value = 1 << 20}));
  std::vector<mt::Binding> readers(kTasks);
  for (std::size_t t = 0; t < hists.size(); ++t) {
    readers[t].open(reg);
    readers[t].histogram("lat", [&hists, t] { return hists[t]; });
  }
  mc::TaskSet tasks;
  for (int t = 0; t < kTasks; ++t) {
    tasks.launch("hist", [&h = hists[static_cast<std::size_t>(t)], t] {
      for (std::uint64_t i = 0; i < kPerTask; ++i) h.record(100 + (t * kPerTask + i) % 1000);
    });
  }
  tasks.wait();
  const auto merged = reg.histogram_merged("lat");
  EXPECT_EQ(merged.total(), kTasks * kPerTask);
  EXPECT_EQ(merged.overflow(), 0u);
  EXPECT_GE(merged.min(), 100u);
  EXPECT_LE(merged.max(), 1099u);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

namespace {

mt::Snapshot example_snapshot() {
  mt::MetricRegistry reg;
  reg.add_counter("port.tx_packets", 1000);
  reg.set_gauge("load.offered_mpps", 14.88);
  mt::LogLinearHistogram h({.sub_bucket_bits = 5, .max_value = 1 << 20});
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v * 10);
  mt::Binding reader;
  reader.open(reg);
  reader.histogram("lat.ns", [&h] { return h; });
  return reg.snapshot(42);
}

}  // namespace

TEST(Exporters, JsonContainsSchemaAndAllMetricKinds) {
  std::ostringstream os;
  mt::write_json(os, example_snapshot());
  const auto s = os.str();
  EXPECT_NE(s.find("\"moongen-telemetry-v1\""), std::string::npos);
  EXPECT_NE(s.find("\"timestamp_ns\""), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("\"port.tx_packets\""), std::string::npos);
  EXPECT_NE(s.find("1000"), std::string::npos);
  EXPECT_NE(s.find("\"load.offered_mpps\""), std::string::npos);
  EXPECT_NE(s.find("14.88"), std::string::npos);
  EXPECT_NE(s.find("\"lat.ns\""), std::string::npos);
  for (const char* key : {"\"count\"", "\"min\"", "\"max\"", "\"mean\"", "\"p50\"", "\"p99\"",
                          "\"p999\"", "\"buckets\"", "\"lower\"", "\"width\""})
    EXPECT_NE(s.find(key), std::string::npos) << key;
}

TEST(Exporters, JsonSeriesWrapsSnapshots) {
  std::ostringstream os;
  mt::write_json_series(os, {example_snapshot(), example_snapshot()});
  const auto s = os.str();
  EXPECT_NE(s.find("\"moongen-telemetry-series-v1\""), std::string::npos);
  EXPECT_NE(s.find("\"snapshots\""), std::string::npos);
  // Two snapshot objects -> the schema of the single snapshot twice.
  const auto first = s.find("moongen-telemetry-v1");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(s.find("moongen-telemetry-v1", first + 1), std::string::npos);
}

TEST(Exporters, JsonEscapesStrings) {
  mt::MetricRegistry reg;
  reg.add_counter("weird\"name\\with\ncontrol", 1);
  std::ostringstream os;
  mt::write_json(os, reg.snapshot());
  const auto s = os.str();
  EXPECT_NE(s.find("weird\\\"name\\\\with\\ncontrol"), std::string::npos);
}

TEST(Exporters, DumpJsonToFileRejectsBadPath) {
  EXPECT_FALSE(mt::dump_json_to_file("/nonexistent-dir/x.json", example_snapshot()));
  EXPECT_FALSE(mt::dump_json_series_to_file("/nonexistent-dir/x.json", {}));
}
