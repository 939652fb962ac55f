#include "smt/core.hpp"

#include <gtest/gtest.h>

#include "smt/metrics.hpp"
#include "smt/workload.hpp"

namespace vds::smt {
namespace {

TraceEntry alu(std::uint8_t dst, std::uint8_t src1, std::uint8_t src2) {
  TraceEntry entry;
  entry.cls = OpClass::kAlu;
  entry.dst = dst;
  entry.src1 = src1;
  entry.src2 = src2;
  entry.has_dst = true;
  entry.uses_src2 = true;
  return entry;
}

TraceEntry mem(std::uint64_t addr, bool load = true) {
  TraceEntry entry;
  entry.cls = OpClass::kMem;
  entry.addr = addr;
  entry.has_dst = load;
  entry.dst = 9;
  return entry;
}

TraceEntry mul(std::uint8_t dst, std::uint8_t src1) {
  TraceEntry entry;
  entry.cls = OpClass::kMul;
  entry.dst = dst;
  entry.src1 = src1;
  entry.has_dst = true;
  return entry;
}

CoreConfig tiny() {
  CoreConfig config;
  config.threads = 2;
  config.issue_width = 2;
  config.alu_units = 2;
  config.mem_ports = 1;
  config.cache.sets = 4;
  config.cache.ways = 2;
  config.cache.hit_latency = 2;
  config.cache.miss_latency = 10;
  return config;
}

TEST(CoreConfig, Validation) {
  EXPECT_NO_THROW(tiny().validate());
  CoreConfig bad = tiny();
  bad.threads = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = tiny();
  bad.issue_width = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = tiny();
  bad.alu_latency = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(Core, EmptyTraceFinishesImmediately) {
  Core core(tiny());
  const InstrTrace empty;
  const CoreResult result = core.run(empty);
  EXPECT_EQ(result.cycles, 0u);
}

TEST(Core, IndependentAlusDualIssue) {
  // 8 independent ALU ops on a 2-wide machine: 4 cycles.
  InstrTrace trace;
  for (int k = 0; k < 8; ++k) {
    trace.push_back(alu(static_cast<std::uint8_t>(k % 8), 20, 21));
  }
  Core core(tiny());
  const CoreResult result = core.run(trace);
  EXPECT_EQ(result.cycles, 4u);
  EXPECT_EQ(result.threads[0].instructions, 8u);
}

TEST(Core, DependencyChainSerializes) {
  // Each op reads the previous result: one per cycle despite width 2.
  InstrTrace trace;
  for (int k = 0; k < 8; ++k) trace.push_back(alu(5, 5, 5));
  Core core(tiny());
  const CoreResult result = core.run(trace);
  EXPECT_EQ(result.cycles, 8u);
}

TEST(Core, MulLatencyStallsDependents) {
  InstrTrace trace;
  trace.push_back(mul(5, 1));   // completes at cycle 3 (latency 3)
  trace.push_back(alu(6, 5, 5));  // must wait
  Core core(tiny());
  const CoreResult result = core.run(trace);
  // mul issues at 0, ready at 3; dependent issues at 3, done at 4.
  EXPECT_EQ(result.cycles, 4u);
}

TEST(Core, StructuralHazardOnMemPort) {
  // Two independent loads, one port: second load waits a cycle.
  InstrTrace trace;
  trace.push_back(mem(0));
  trace.push_back(mem(100));
  CoreConfig config = tiny();
  config.mem_ports = 1;
  Core one_port(config);
  const auto r1 = one_port.run(trace);
  config.mem_ports = 2;
  Core two_ports(config);
  const auto r2 = two_ports.run(trace);
  EXPECT_GT(r1.cycles, r2.cycles);
}

TEST(Core, CacheMissesCostMore) {
  InstrTrace hit_trace;
  for (int k = 0; k < 16; ++k) hit_trace.push_back(mem(0));
  InstrTrace miss_trace;
  for (int k = 0; k < 16; ++k) {
    hit_trace.push_back(mem(0));
    miss_trace.push_back(mem(static_cast<std::uint64_t>(k) * 1024));
  }
  Core core_a(tiny());
  Core core_b(tiny());
  const auto hits = core_a.run(hit_trace);
  const auto misses = core_b.run(miss_trace);
  EXPECT_GT(misses.cache_misses, hits.cache_misses);
}

TEST(Core, BranchMispredictsStallFetch) {
  // Deterministic alternating branch at one pc defeats the 2-bit
  // predictor; compare against an always-taken (predictable) stream.
  auto branch = [](bool taken) {
    TraceEntry entry;
    entry.cls = OpClass::kBranch;
    entry.pc = 7;
    entry.taken = taken;
    return entry;
  };
  InstrTrace alternating;
  InstrTrace steady;
  for (int k = 0; k < 64; ++k) {
    alternating.push_back(branch(k % 2 == 0));
    steady.push_back(branch(true));
    alternating.push_back(alu(1, 2, 3));
    steady.push_back(alu(1, 2, 3));
  }
  Core core_a(tiny());
  Core core_b(tiny());
  const auto alt = core_a.run(alternating);
  const auto std_r = core_b.run(steady);
  EXPECT_GT(alt.threads[0].mispredicts, std_r.threads[0].mispredicts);
  EXPECT_GT(alt.cycles, std_r.cycles);
}

TEST(Core, TwoThreadsFinishBothTraces) {
  InstrTrace t0;
  InstrTrace t1;
  for (int k = 0; k < 100; ++k) {
    t0.push_back(alu(1, 2, 3));
    t1.push_back(alu(4, 5, 6));
  }
  Core core(tiny());
  const CoreResult result = core.run(t0, t1);
  ASSERT_EQ(result.threads.size(), 2u);
  EXPECT_EQ(result.threads[0].instructions, 100u);
  EXPECT_EQ(result.threads[1].instructions, 100u);
  EXPECT_EQ(result.issued_total, 200u);
}

TEST(Core, CoScheduleNeverFasterThanAloneAndNeverWorseThanSerial) {
  vds::sim::Rng rng(11);
  const auto trace_a = generate_trace(balanced_workload(3000), rng);
  const auto trace_b = generate_trace(balanced_workload(3000), rng);
  const auto m = measure_alpha(tiny(), FetchPolicy::kIcount, trace_a,
                               trace_b);
  EXPECT_GE(m.cycles_together + 2,
            std::max(m.cycles_a_alone, m.cycles_b_alone));
  EXPECT_LE(m.cycles_together,
            m.cycles_a_alone + m.cycles_b_alone + 2);
}

TEST(Core, DeterministicAcrossRuns) {
  vds::sim::Rng rng(12);
  const auto trace = generate_trace(balanced_workload(2000), rng);
  Core core_a(tiny());
  Core core_b(tiny());
  EXPECT_EQ(core_a.run(trace, trace).cycles,
            core_b.run(trace, trace).cycles);
}

TEST(Core, PartitionedCacheChangesBehaviour) {
  vds::sim::Rng rng(13);
  auto config = memory_bound_workload(4000);
  config.footprint_words = 64;  // small enough that partitioning hurts
  const auto trace = generate_trace(config, rng);
  CoreConfig shared = tiny();
  shared.shared_cache = true;
  CoreConfig split = tiny();
  split.shared_cache = false;
  const auto m_shared =
      measure_alpha(shared, FetchPolicy::kIcount, trace, trace);
  const auto m_split =
      measure_alpha(split, FetchPolicy::kIcount, trace, trace);
  // Either way alpha stays in the legal band; the two configs must
  // genuinely differ in timing.
  EXPECT_NE(m_shared.cycles_together, m_split.cycles_together);
}

class AlphaBand : public ::testing::TestWithParam<int> {};

TEST_P(AlphaBand, AlphaAlwaysInHalfToOne) {
  // The paper's model requires alpha in (1/2, 1]. The simulator can dip
  // marginally below 0.5 through *constructive* cache sharing (one
  // thread prefetches lines the co-runner reuses) -- a real SMT effect
  // the analytic model does not represent -- so the lower bound is
  // checked with a small tolerance. Above, running together must never
  // be worse than time-slicing.
  vds::sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const WorkloadConfig configs[] = {
      compute_bound_workload(2000), memory_bound_workload(2000),
      branchy_workload(2000), serial_chain_workload(2000),
      balanced_workload(2000)};
  const auto& wc = configs[GetParam() % 5];
  const auto trace_a = generate_trace(wc, rng);
  const auto trace_b = generate_trace(wc, rng);
  CoreConfig config;  // default 4-wide
  const auto m =
      measure_alpha(config, FetchPolicy::kIcount, trace_a, trace_b);
  EXPECT_GE(m.alpha, 0.47);
  EXPECT_LE(m.alpha, 1.0 + 0.02);
}

INSTANTIATE_TEST_SUITE_P(Workloads, AlphaBand, ::testing::Range(0, 10));

TEST(FetchPolicies, BothCompleteWithSimilarWork) {
  vds::sim::Rng rng(14);
  const auto trace = generate_trace(balanced_workload(4000), rng);
  CoreConfig config;
  const auto rr =
      measure_alpha(config, FetchPolicy::kRoundRobin, trace, trace);
  const auto icount =
      measure_alpha(config, FetchPolicy::kIcount, trace, trace);
  EXPECT_GT(rr.cycles_together, 0u);
  EXPECT_GT(icount.cycles_together, 0u);
  // ICOUNT should not be grossly worse than round-robin.
  EXPECT_LT(static_cast<double>(icount.cycles_together),
            1.25 * static_cast<double>(rr.cycles_together));
}

TEST(Core, SingleThreadOnWideMachineReachesHighIpc) {
  vds::sim::Rng rng(15);
  const auto trace = generate_trace(compute_bound_workload(5000), rng);
  CoreConfig config;  // 4-wide
  Core core(config);
  const auto result = core.run(trace);
  EXPECT_GT(result.threads[0].ipc(), 1.5);
}

TEST(Core, MaxCyclesCapStopsRunaways) {
  InstrTrace trace;
  for (int k = 0; k < 100; ++k) trace.push_back(alu(1, 1, 1));
  CoreConfig config = tiny();
  config.max_cycles = 10;
  Core core(config);
  const auto result = core.run(trace);
  EXPECT_LE(result.cycles, 10u);
}

}  // namespace
}  // namespace vds::smt
