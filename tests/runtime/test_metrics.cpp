// The observability layer's contracts: sharded counters sum exactly,
// collection is gated on the registry switches, deterministic event
// counts are bitwise-stable across --threads (the DESIGN §8 contract),
// and the serialized forms (vds.metrics.v1 snapshot, Chrome trace
// array) parse as the JSON they claim to be.

#include "runtime/metrics.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/mc_campaign.hpp"
#include "scenario/json_reader.hpp"

namespace metrics = vds::runtime::metrics;
using metrics::Determinism;

namespace {

/// Every test starts from a clean, enabled registry. The registry is
/// process-global, so tests in this binary must not assume counters
/// they did not create are zero — they re-reset at entry instead.
[[maybe_unused]] void reset_enabled() {
  auto& reg = metrics::registry();
  reg.set_tracing(false);
  reg.set_enabled(true);
  reg.reset();
}

[[maybe_unused]] vds::runtime::McConfig small_campaign(unsigned threads) {
  vds::runtime::McConfig config;
  config.kinds = {vds::fault::FaultKind::kTransient,
                  vds::fault::FaultKind::kCrash};
  config.rounds = {1, 5, 10};
  config.replicas = 4;
  config.seed = 99;
  config.threads = threads;
  return config;
}

[[maybe_unused]] std::string deterministic_counters() {
  std::ostringstream os;
  metrics::registry().write_counters(os, Determinism::kDeterministic);
  return os.str();
}

}  // namespace

#if VDS_METRICS_ENABLED

TEST(Metrics, CounterCountsOnlyWhileEnabled) {
  reset_enabled();
  auto& reg = metrics::registry();
  auto& counter = reg.counter("test.gate", Determinism::kDeterministic);

  reg.set_enabled(false);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.total(), 0u);

  reg.set_enabled(true);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.total(), 42u);
}

TEST(Metrics, RegistryReturnsTheSameCounterForAName) {
  reset_enabled();
  auto& reg = metrics::registry();
  auto& a = reg.counter("test.same", Determinism::kDeterministic);
  auto& b = reg.counter("test.same", Determinism::kDeterministic);
  EXPECT_EQ(&a, &b);
  a.add(7);
  EXPECT_EQ(b.total(), 7u);
}

TEST(Metrics, ShardedCounterSumsExactlyAcrossThreads) {
  reset_enabled();
  auto& counter = metrics::registry().counter("test.sharded",
                                              Determinism::kDeterministic);
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t k = 0; k < kAddsPerThread; ++k) counter.add();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.total(), kThreads * kAddsPerThread);
}

TEST(Metrics, ResetZeroesWithoutInvalidatingReferences) {
  reset_enabled();
  auto& reg = metrics::registry();
  auto& counter = reg.counter("test.reset", Determinism::kDeterministic);
  counter.add(5);
  reg.reset();
  EXPECT_EQ(counter.total(), 0u);
  counter.add(3);  // the old reference still feeds the same counter
  EXPECT_EQ(reg.counter("test.reset", Determinism::kDeterministic).total(),
            3u);
}

TEST(Metrics, WriteCountersSeparatesDeterminismClassesSorted) {
  reset_enabled();
  auto& reg = metrics::registry();
  reg.counter("test.z_det", Determinism::kDeterministic).add(1);
  reg.counter("test.a_det", Determinism::kDeterministic).add(2);
  reg.counter("test.sched", Determinism::kScheduling).add(3);

  const std::string det = deterministic_counters();
  EXPECT_NE(det.find("test.a_det 2\n"), std::string::npos);
  EXPECT_NE(det.find("test.z_det 1\n"), std::string::npos);
  EXPECT_EQ(det.find("test.sched"), std::string::npos);
  EXPECT_LT(det.find("test.a_det"), det.find("test.z_det"));

  std::ostringstream os;
  reg.write_counters(os, Determinism::kScheduling);
  EXPECT_NE(os.str().find("test.sched 3\n"), std::string::npos);
  EXPECT_EQ(os.str().find("test.a_det"), std::string::npos);
}

TEST(Metrics, TimingRecordsOnlyWhileEnabled) {
  reset_enabled();
  auto& reg = metrics::registry();
  auto& timing = reg.timing("test.timing_ms");
  reg.set_enabled(false);
  timing.record_ms(1.0);
  reg.set_enabled(true);
  timing.record_ms(2.0);
  timing.record_ms(4.0);

  std::ostringstream os;
  reg.write_snapshot(os);
  const auto doc = vds::scenario::parse_json(os.str());
  const auto* timings = doc.find("timings_ms");
  ASSERT_NE(timings, nullptr);
  const auto* entry = timings->find("test.timing_ms");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->find("count")->as_u64("count"), 2u);
  EXPECT_DOUBLE_EQ(entry->find("mean")->as_double("mean"), 3.0);
  EXPECT_DOUBLE_EQ(entry->find("min")->as_double("min"), 2.0);
  EXPECT_DOUBLE_EQ(entry->find("max")->as_double("max"), 4.0);
  // Percentiles are ordered and never leave the observed range.
  double last = entry->find("min")->as_double("min");
  for (const char* key : {"p50", "p90", "p99", "max"}) {
    const double value = entry->find(key)->as_double(key);
    EXPECT_LE(last, value) << key;
    last = value;
  }
}

TEST(Metrics, SnapshotIsValidMetricsV1Json) {
  reset_enabled();
  auto& reg = metrics::registry();
  reg.counter("test.det", Determinism::kDeterministic).add(11);
  reg.counter("test.sched", Determinism::kScheduling).add(7);

  std::ostringstream os;
  reg.write_snapshot(os);
  const auto doc = vds::scenario::parse_json(os.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("schema")->as_string("schema"), "vds.metrics.v1");
  EXPECT_TRUE(doc.find("compiled")->as_bool("compiled"));
  EXPECT_EQ(doc.find("counters")->find("test.det")->as_u64("det"), 11u);
  EXPECT_EQ(doc.find("scheduling")->find("test.sched")->as_u64("sched"), 7u);
  EXPECT_EQ(doc.find("counters")->find("test.sched"), nullptr);
}

// The tentpole contract: the same campaign produces byte-identical
// deterministic counters for ANY worker-thread count. Scheduling
// counters and timings may differ; event counts may not.
TEST(Metrics, CampaignEventCountsAreThreadCountInvariant) {
  const auto runner =
      vds::runtime::make_smt_runner(vds::core::VdsOptions{});
  std::vector<std::string> sections;
  std::vector<std::uint64_t> digests;
  for (const unsigned threads : {1u, 4u, 16u}) {
    reset_enabled();
    const auto summary =
        vds::runtime::run_mc_campaign(small_campaign(threads), runner);
    digests.push_back(summary.digest());
    sections.push_back(deterministic_counters());
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]);
  ASSERT_FALSE(sections[0].empty());
  EXPECT_EQ(sections[0], sections[1]) << sections[0];
  EXPECT_EQ(sections[0], sections[2]) << sections[0];
  // Spot-check the section actually carries the engine counters.
  EXPECT_NE(sections[0].find("engine.runs 24\n"), std::string::npos)
      << sections[0];
  EXPECT_NE(sections[0].find("mc.cells_executed 24\n"), std::string::npos);
}

// A --cell-range shard (one fabric lease) submits one task per block
// of its own range and reduces only the 64-cell shards that range
// meets, never the whole grid's: here 50 two-cell blocks and 3 of the
// grid's 94 shards, at any worker count, with the pinned digest.
TEST(Metrics, CellRangeSubmitsOnlyItsBlocksAndShards) {
  const auto runner =
      vds::runtime::make_smt_runner(vds::core::VdsOptions{});
  for (const unsigned threads : {1u, 3u}) {
    reset_enabled();
    vds::runtime::McConfig config = small_campaign(threads);
    config.replicas = 1000;  // 2 kinds x 3 rounds x 1000 = 6000 cells
    config.cell_lo = 1000;
    config.cell_hi = 1100;
    const auto summary = vds::runtime::run_mc_campaign(config, runner);
    EXPECT_EQ(summary.digest(), 0x47bf6856ff99373cull) << threads;
    EXPECT_EQ(summary.cells_executed, 100u);
    EXPECT_EQ(metrics::registry()
                  .counter("pool.tasks_submitted", Determinism::kDeterministic)
                  .total(),
              50u + 3u)
        << threads;
  }
}

TEST(Metrics, TraceSerializesAsChromeCompleteEvents) {
  reset_enabled();
  auto& reg = metrics::registry();
  reg.set_tracing(true);
  {
    const metrics::Span outer("test.outer", "test");
    const metrics::Span inner("test.inner", "test", /*arg=*/42);
  }
  const auto runner =
      vds::runtime::make_smt_runner(vds::core::VdsOptions{});
  (void)vds::runtime::run_mc_campaign(small_campaign(2), runner);
  reg.set_tracing(false);

  std::ostringstream os;
  reg.write_trace(os);
  const auto doc = vds::scenario::parse_json(os.str());
  ASSERT_EQ(doc.kind, vds::scenario::JsonValue::Kind::kArray);
  ASSERT_FALSE(doc.items.empty());
  std::set<std::string> names;
  for (const auto& event : doc.items) {
    ASSERT_TRUE(event.is_object());
    names.insert(event.find("name")->as_string("name"));
    EXPECT_EQ(event.find("ph")->as_string("ph"), "X");
    EXPECT_GE(event.find("ts")->as_double("ts"), 0.0);
    EXPECT_GE(event.find("dur")->as_double("dur"), 0.0);
    EXPECT_NE(event.find("pid"), nullptr);
    EXPECT_NE(event.find("tid"), nullptr);
  }
  EXPECT_TRUE(names.count("test.outer"));
  EXPECT_TRUE(names.count("test.inner"));
  EXPECT_TRUE(names.count("mc.campaign"));
  EXPECT_TRUE(names.count("mc.cell"));
  EXPECT_TRUE(names.count("engine.run"));
}

TEST(Metrics, SpansAreFreeWhenTracingIsOff) {
  reset_enabled();  // tracing off
  { const metrics::Span span("test.untraced", "test"); }
  std::ostringstream os;
  metrics::registry().write_trace(os);
  const auto doc = vds::scenario::parse_json(os.str());
  ASSERT_EQ(doc.kind, vds::scenario::JsonValue::Kind::kArray);
  EXPECT_TRUE(doc.items.empty());
}

#else  // !VDS_METRICS_ENABLED

// Compiled-out build: the stub API must still link and the snapshot
// must still be valid (empty) vds.metrics.v1 JSON so --metrics keeps
// working.
TEST(Metrics, CompiledOutStubEmitsEmptySnapshot) {
  auto& reg = metrics::registry();
  reg.set_enabled(true);
  reg.counter("test.ignored", Determinism::kDeterministic).add(5);
  EXPECT_EQ(reg.counter("test.ignored", Determinism::kDeterministic).total(),
            0u);

  std::ostringstream os;
  reg.write_snapshot(os);
  const auto doc = vds::scenario::parse_json(os.str());
  EXPECT_EQ(doc.find("schema")->as_string("schema"), "vds.metrics.v1");
  EXPECT_FALSE(doc.find("compiled")->as_bool("compiled"));

  std::ostringstream trace;
  reg.write_trace(trace);
  const auto events = vds::scenario::parse_json(trace.str());
  EXPECT_EQ(events.kind, vds::scenario::JsonValue::Kind::kArray);
  EXPECT_TRUE(events.items.empty());
}

#endif  // VDS_METRICS_ENABLED
