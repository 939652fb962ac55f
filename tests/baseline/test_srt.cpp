#include "baseline/srt.hpp"

#include <gtest/gtest.h>

namespace vds::baseline {
namespace {

using vds::fault::Fault;
using vds::fault::FaultKind;
using vds::fault::FaultTimeline;

SrtConfig base_config() {
  SrtConfig config;
  config.t = 1.0;
  config.alpha = 0.65;
  config.compare_overhead = 0.10;
  config.chunks_per_round = 100;
  config.s = 20;
  config.job_rounds = 100;
  return config;
}

Fault transient_at(double when) {
  Fault fault;
  fault.when = when;
  fault.kind = FaultKind::kTransient;
  return fault;
}

TEST(SrtConfig, Validation) {
  EXPECT_NO_THROW(base_config().validate());
  SrtConfig bad = base_config();
  bad.alpha = 0.3;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = base_config();
  bad.chunks_per_round = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = base_config();
  bad.compare_overhead = -0.1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(LockstepSrt, FaultFreeTiming) {
  const SrtConfig config = base_config();
  LockstepSrt srt(config, vds::sim::Rng(1));
  FaultTimeline timeline(std::vector<Fault>{});
  const auto report = srt.run(timeline);
  EXPECT_TRUE(report.completed);
  const double round = 2.0 * 0.65 * 1.0 * 1.10;
  EXPECT_NEAR(report.total_time, 100.0 * round, 1e-9);
}

TEST(LockstepSrt, ComparisonOverheadSlowsNormalProcessing) {
  SrtConfig with = base_config();
  SrtConfig without = base_config();
  without.compare_overhead = 0.0;
  FaultTimeline t1(std::vector<Fault>{});
  FaultTimeline t2(std::vector<Fault>{});
  const auto slow = LockstepSrt(with, vds::sim::Rng(1)).run(t1);
  const auto fast = LockstepSrt(without, vds::sim::Rng(1)).run(t2);
  EXPECT_GT(slow.total_time, fast.total_time);
}

TEST(LockstepSrt, DetectionLatencyIsSubRound) {
  // This is SRT's selling point: the fault surfaces at the end of its
  // chunk, a hundredth of a round here -- versus up to a full round
  // pair for the VDS.
  const SrtConfig config = base_config();
  LockstepSrt srt(config, vds::sim::Rng(2));
  FaultTimeline timeline({transient_at(7.3)});
  const auto report = srt.run(timeline);
  EXPECT_EQ(report.detections, 1u);
  ASSERT_EQ(report.detection_latency.count(), 1u);
  const double round = 2.0 * 0.65 * 1.10;
  EXPECT_LT(report.detection_latency.mean(), round / 50.0);
}

TEST(LockstepSrt, RecoversByRollbackOnly) {
  const SrtConfig config = base_config();
  LockstepSrt srt(config, vds::sim::Rng(3));
  // Fault lands in round 8 (time ~ 7 * 1.43): rollback to round 0.
  FaultTimeline timeline({transient_at(10.3)});
  const auto report = srt.run(timeline);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.rollbacks, 1u);
  EXPECT_EQ(report.recoveries_ok, 0u);  // no third version, no vote
}

TEST(LockstepSrt, PermanentFaultIsSilent) {
  // Identical redundant copies cannot expose a permanent fault: the
  // key qualitative difference from the diversity-based VDS.
  const SrtConfig config = base_config();
  LockstepSrt srt(config, vds::sim::Rng(4));
  Fault permanent = transient_at(5.0);
  permanent.kind = FaultKind::kPermanent;
  FaultTimeline timeline({permanent});
  const auto report = srt.run(timeline);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.detections, 0u);
  EXPECT_TRUE(report.silent_corruption);
}

TEST(LockstepSrt, HighFaultRateDegradesThroughput) {
  SrtConfig config = base_config();
  config.job_rounds = 300;
  vds::fault::FaultConfig fc;
  fc.rate = 0.02;
  vds::sim::Rng rng(5);
  auto noisy = vds::fault::generate_timeline(fc, rng, 5000.0);
  FaultTimeline clean(std::vector<Fault>{});
  const auto noisy_run = LockstepSrt(config, vds::sim::Rng(6)).run(noisy);
  const auto clean_run = LockstepSrt(config, vds::sim::Rng(6)).run(clean);
  EXPECT_TRUE(noisy_run.completed);
  EXPECT_GT(noisy_run.total_time, clean_run.total_time);
}

// --- chunk-window boundaries ------------------------------------------
//
// A round of 1.0 cut into four 0.25 chunks keeps every clock value
// exact in binary, so each expectation below is bitwise. A chunk
// window is [from, to): a fault exactly on a boundary belongs to the
// chunk that starts there.

SrtConfig boundary_config() {
  SrtConfig config;
  config.t = 1.0;
  config.alpha = 0.5;
  config.compare_overhead = 0.0;  // round = 2 * 0.5 * 1.0 = 1.0
  config.chunks_per_round = 4;    // chunk = 0.25
  config.s = 20;                  // one checkpoint, at the job's end
  config.job_rounds = 10;
  config.checkpoint_read_latency = 0.5;
  return config;
}

struct BoundaryCase {
  double when;            ///< fault time
  double detected_at;     ///< end of the detecting chunk
  std::uint64_t compared; ///< chunks compared up to the detection
};

TEST(LockstepSrt, FaultsAtChunkBoundariesAreDetectedInTheirOwnChunk) {
  const BoundaryCase cases[] = {
      {2.25, 2.5, 10},  // exactly at the start of round 3's chunk 1
      {3.0, 3.25, 13},  // exactly at the end of round 3: round 4, chunk 0
      {2.6, 2.75, 11},  // inside round 3's chunk 2
  };
  for (const BoundaryCase& c : cases) {
    SCOPED_TRACE(c.when);
    FaultTimeline timeline({transient_at(c.when)});
    const auto report =
        LockstepSrt(boundary_config(), vds::sim::Rng(7)).run(timeline);
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.detections, 1u);
    EXPECT_EQ(report.rollbacks, 1u);
    ASSERT_EQ(report.detection_latency.count(), 1u);
    EXPECT_EQ(report.detection_latency.max(), c.detected_at - c.when);
    // Rollback to round 0, then all ten rounds (40 chunks) again.
    EXPECT_EQ(report.comparisons, c.compared + 40u);
    EXPECT_EQ(report.total_time, c.detected_at + 0.5 + 10.0);
  }
}

TEST(LockstepSrt, FaultDuringRollbackLatencyIsDropped) {
  // The second fault falls in the rollback's read latency
  // [2.5, 3.0): no chunk window covers it, so it is never seen.
  FaultTimeline timeline({transient_at(2.25), transient_at(2.6)});
  const auto report =
      LockstepSrt(boundary_config(), vds::sim::Rng(8)).run(timeline);
  EXPECT_EQ(report.faults_seen, 1u);
  EXPECT_EQ(report.detections, 1u);
  EXPECT_EQ(report.comparisons, 50u);
  EXPECT_EQ(report.total_time, 13.0);
  EXPECT_EQ(timeline.remaining(), 0u);
}

TEST(LockstepSrt, FaultFreeClockIsThePerChunkSum) {
  // Skipped (empty) chunk windows still advance the clock by one
  // chunk each, in the same order of additions.
  const SrtConfig config = base_config();
  FaultTimeline timeline(std::vector<Fault>{});
  const auto report = LockstepSrt(config, vds::sim::Rng(9)).run(timeline);
  const double chunk =
      2.0 * config.alpha * config.t * (1.0 + config.compare_overhead) /
      static_cast<double>(config.chunks_per_round);
  double clock = 0.0;
  for (std::uint64_t k = 0;
       k < config.job_rounds *
               static_cast<std::uint64_t>(config.chunks_per_round);
       ++k) {
    clock += chunk;
  }
  EXPECT_EQ(report.total_time, clock);
  EXPECT_EQ(report.comparisons,
            config.job_rounds *
                static_cast<std::uint64_t>(config.chunks_per_round));
}

}  // namespace
}  // namespace vds::baseline
