#include "baseline/srt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <vector>

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
  EXPECT_EQ(timeline.next_time(), vds::sim::kTimeInfinity);
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

// --- differential: the clean-chunk loop against the per-chunk loop -----

/// LockstepSrt::run as it was before clean chunks ran as a bare clock
/// loop: every chunk takes the drain-and-classify body.
vds::core::RunReport reference_run(const SrtConfig& config,
                                   FaultTimeline& timeline) {
  vds::core::RunReport rep;
  const double round_time =
      2.0 * config.alpha * config.t * (1.0 + config.compare_overhead);
  const double chunk_time =
      round_time / static_cast<double>(config.chunks_per_round);

  double clock = 0.0;
  std::uint64_t base = 0;
  std::uint64_t i = 0;

  while (base + i < config.job_rounds && clock <= config.max_time) {
    bool fault_detected = false;
    bool processor_crash = false;
    for (int chunk = 0; chunk < config.chunks_per_round; ++chunk) {
      std::vector<Fault> faults;
      if (timeline.next_time() < clock + chunk_time) {
        faults = timeline.drain_window(clock, clock + chunk_time);
      }
      clock += chunk_time;
      for (const Fault& fault : faults) {
        ++rep.faults_seen;
        switch (fault.kind) {
          case FaultKind::kTransient:
            ++rep.transient_faults;
            fault_detected = true;
            break;
          case FaultKind::kCrash:
            ++rep.crash_faults;
            fault_detected = true;
            break;
          case FaultKind::kPermanent:
            ++rep.permanent_faults;
            rep.silent_corruption = true;
            break;
          case FaultKind::kProcessorCrash:
            ++rep.processor_crashes;
            processor_crash = true;
            fault_detected = true;
            break;
        }
        if (fault_detected) {
          rep.detection_latency.add(clock - fault.when);
        }
      }
      ++rep.comparisons;
      if (fault_detected) break;
    }

    if (fault_detected || processor_crash) {
      ++rep.detections;
      const double recovery_start = clock;
      clock += config.checkpoint_read_latency;
      i = 0;
      ++rep.rollbacks;
      rep.recovery_time.add(clock - recovery_start);
      continue;
    }

    ++i;
    if (i >= static_cast<std::uint64_t>(config.s) ||
        base + i >= config.job_rounds) {
      clock += config.checkpoint_write_latency;
      ++rep.checkpoints;
      base += i;
      i = 0;
    }
  }

  rep.total_time = clock;
  rep.rounds_committed = std::min(base + i, config.job_rounds);
  rep.completed = rep.rounds_committed >= config.job_rounds;
  return rep;
}

void expect_same_accumulator(const vds::sim::Accumulator& a,
                             const vds::sim::Accumulator& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.sum()),
            std::bit_cast<std::uint64_t>(b.sum()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean()),
            std::bit_cast<std::uint64_t>(b.mean()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.variance()),
            std::bit_cast<std::uint64_t>(b.variance()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.min()),
            std::bit_cast<std::uint64_t>(b.min()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.max()),
            std::bit_cast<std::uint64_t>(b.max()));
}

void expect_same_report(const vds::core::RunReport& a,
                        const vds::core::RunReport& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed_safe, b.failed_safe);
  EXPECT_EQ(a.silent_corruption, b.silent_corruption);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.total_time),
            std::bit_cast<std::uint64_t>(b.total_time));
  EXPECT_EQ(a.rounds_committed, b.rounds_committed);
  EXPECT_EQ(a.faults_seen, b.faults_seen);
  EXPECT_EQ(a.transient_faults, b.transient_faults);
  EXPECT_EQ(a.crash_faults, b.crash_faults);
  EXPECT_EQ(a.permanent_faults, b.permanent_faults);
  EXPECT_EQ(a.processor_crashes, b.processor_crashes);
  EXPECT_EQ(a.detections, b.detections);
  EXPECT_EQ(a.recoveries_ok, b.recoveries_ok);
  EXPECT_EQ(a.rollbacks, b.rollbacks);
  EXPECT_EQ(a.comparisons, b.comparisons);
  EXPECT_EQ(a.checkpoints, b.checkpoints);
  EXPECT_EQ(a.roll_forwards_kept, b.roll_forwards_kept);
  EXPECT_EQ(a.roll_forwards_discarded, b.roll_forwards_discarded);
  EXPECT_EQ(a.roll_forward_rounds_gained, b.roll_forward_rounds_gained);
  EXPECT_EQ(a.predictions, b.predictions);
  EXPECT_EQ(a.prediction_hits, b.prediction_hits);
  EXPECT_EQ(a.adaptive_det_recoveries, b.adaptive_det_recoveries);
  EXPECT_EQ(a.adaptive_prob_recoveries, b.adaptive_prob_recoveries);
  EXPECT_EQ(a.scheme_switches, b.scheme_switches);
  expect_same_accumulator(a.detection_latency, b.detection_latency);
  expect_same_accumulator(a.recovery_time, b.recovery_time);
}

TEST(LockstepSrt, CleanChunkLoopMatchesThePerChunkLoopBitwise) {
  std::mt19937_64 rng(20041);
  const auto pick = [&](std::uint64_t n) {
    return static_cast<std::uint64_t>(rng() % n);
  };
  const auto uniform = [&] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  const int chunk_counts[] = {1, 3, 7, 100};
  const double alphas[] = {0.5, 0.65, 0.8};
  const int intervals[] = {1, 5, 20};

  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE(trial);
    SrtConfig config;
    config.alpha = alphas[pick(3)];
    config.compare_overhead = pick(2) == 0 ? 0.0 : 0.1;
    config.chunks_per_round = chunk_counts[pick(4)];
    config.s = intervals[pick(3)];
    config.job_rounds = 1 + pick(60);
    config.checkpoint_write_latency = pick(2) == 0 ? 0.0 : 0.37;
    config.checkpoint_read_latency = pick(2) == 0 ? 0.0 : 0.5;
    const double round_time =
        2.0 * config.alpha * config.t * (1.0 + config.compare_overhead);
    const double chunk_time =
        round_time / static_cast<double>(config.chunks_per_round);
    const double horizon =
        1.5 * round_time * static_cast<double>(config.job_rounds);
    if (pick(4) == 0) config.max_time = uniform() * horizon;  // a cut

    // The clock values of the fault-free path: chunk boundaries as the
    // engine computes them, by repeated addition.
    std::vector<double> boundaries;
    double clock = 0.0;
    for (std::uint64_t k = 0;
         k < config.job_rounds *
                 static_cast<std::uint64_t>(config.chunks_per_round);
         ++k) {
      clock += chunk_time;
      boundaries.push_back(clock);
    }

    std::vector<Fault> faults;
    const std::uint64_t count = pick(6);
    for (std::uint64_t n = 0; n < count; ++n) {
      Fault fault;
      const std::uint64_t kind = pick(8);
      fault.kind = kind < 4   ? FaultKind::kTransient
                   : kind < 5 ? FaultKind::kCrash
                   : kind < 7 ? FaultKind::kPermanent
                              : FaultKind::kProcessorCrash;
      switch (pick(3)) {
        case 0:  // exactly on a chunk boundary
          fault.when = boundaries[pick(boundaries.size())];
          break;
        case 1: {  // two faults inside one chunk
          fault.when = boundaries[pick(boundaries.size())] + 0.25 * chunk_time;
          Fault twin = fault;
          twin.when += 0.5 * chunk_time;
          faults.push_back(twin);
          break;
        }
        default:
          fault.when = uniform() * horizon;
          break;
      }
      faults.push_back(fault);
    }

    FaultTimeline for_engine(faults);
    FaultTimeline for_reference(faults);
    const auto got =
        LockstepSrt(config, vds::sim::Rng(trial)).run(for_engine);
    const auto want = reference_run(config, for_reference);
    expect_same_report(got, want);
    EXPECT_EQ(for_engine.next_time(), for_reference.next_time());
  }
}

}  // namespace
}  // namespace vds::baseline
