#include "model/reliability.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/smt_engine.hpp"
#include "model/timing.hpp"
#include "sim/stats.hpp"

namespace vds::model {
namespace {

Params paper_params(double p = 0.5) {
  return Params::with_beta(0.65, 0.1, 20, p);
}

TEST(Reliability, ZeroRateIsFaultFree) {
  const auto est = estimate_reliability(paper_params(),
                                        Scheme::kDeterministic, 0.0, 1000);
  EXPECT_DOUBLE_EQ(est.p_fault_per_round, 0.0);
  EXPECT_DOUBLE_EQ(est.expected_detections, 0.0);
  EXPECT_DOUBLE_EQ(est.expected_rollbacks, 0.0);
  EXPECT_DOUBLE_EQ(est.p_job_silent, 0.0);
  EXPECT_NEAR(est.expected_total_time,
              1000.0 * tht2_round(paper_params()), 1e-9);
}

TEST(Reliability, PerRoundFaultProbabilityIsPoisson) {
  const Params params = paper_params();
  const double rate = 0.01;
  const auto est =
      estimate_reliability(params, Scheme::kDeterministic, rate, 1000);
  EXPECT_NEAR(est.p_fault_per_round,
              1.0 - std::exp(-rate * tht2_round(params)), 1e-12);
}

TEST(Reliability, DetectionsScaleWithRateAndJob) {
  const auto low = estimate_reliability(paper_params(),
                                        Scheme::kDeterministic, 0.001,
                                        1000);
  const auto high = estimate_reliability(paper_params(),
                                         Scheme::kDeterministic, 0.01,
                                         1000);
  const auto longer = estimate_reliability(paper_params(),
                                           Scheme::kDeterministic, 0.001,
                                           10000);
  EXPECT_GT(high.expected_detections, low.expected_detections);
  EXPECT_NEAR(longer.expected_detections, 10.0 * low.expected_detections,
              1e-9);
}

TEST(Reliability, RecoveryFailureGrowsWithS) {
  // Longer intervals -> longer retries -> more exposure to a second
  // fault: the Ziv-Bruck argument for short test intervals.
  const auto small = estimate_reliability(
      Params::with_beta(0.65, 0.1, 5), Scheme::kDeterministic, 0.01, 1000);
  const auto large = estimate_reliability(
      Params::with_beta(0.65, 0.1, 80), Scheme::kDeterministic, 0.01,
      1000);
  EXPECT_LT(small.p_recovery_failure, large.p_recovery_failure);
}

TEST(Reliability, OnlyPredictSchemeRisksSilence) {
  const double rate = 0.02;
  const auto det = estimate_reliability(paper_params(1.0),
                                        Scheme::kDeterministic, rate,
                                        5000);
  const auto prob = estimate_reliability(paper_params(1.0),
                                         Scheme::kProbabilistic, rate,
                                         5000);
  const auto pred = estimate_reliability(paper_params(1.0),
                                         Scheme::kPrediction, rate, 5000);
  EXPECT_DOUBLE_EQ(det.p_silent_per_detection, 0.0);
  EXPECT_DOUBLE_EQ(prob.p_silent_per_detection, 0.0);
  EXPECT_GT(pred.p_silent_per_detection, 0.0);
  EXPECT_GT(pred.p_job_silent, 0.0);
  EXPECT_LT(pred.p_job_silent, 1.0);
}

TEST(Reliability, SilentRiskGrowsWithPredictionAccuracy) {
  // The better the prediction, the more often corrupted roll-forwards
  // are *kept* -- an interesting inversion the closed form captures.
  const auto low = estimate_reliability(paper_params(0.3),
                                        Scheme::kPrediction, 0.02, 5000);
  const auto high = estimate_reliability(paper_params(0.9),
                                         Scheme::kPrediction, 0.02, 5000);
  EXPECT_LT(low.p_silent_per_detection, high.p_silent_per_detection);
}

TEST(Reliability, ThroughputDegradesGracefully) {
  double prev = 1e18;
  for (const double rate : {0.0, 0.005, 0.01, 0.02, 0.05}) {
    const auto est = estimate_reliability(paper_params(),
                                          Scheme::kDeterministic, rate,
                                          10000);
    EXPECT_LT(est.expected_throughput, prev + 1e-12) << rate;
    prev = est.expected_throughput;
  }
}

TEST(Reliability, OptimalIntervalMovesWithWriteCost) {
  const Params params = paper_params();
  const int cheap = optimal_checkpoint_interval(
      params, Scheme::kDeterministic, 0.01, 10000, /*write=*/0.0);
  const int expensive = optimal_checkpoint_interval(
      params, Scheme::kDeterministic, 0.01, 10000, /*write=*/10.0);
  EXPECT_LT(cheap, expensive);
}

// ---------------------------------------------------------------------
// Monte Carlo validation against the protocol engine.
// ---------------------------------------------------------------------

TEST(ReliabilityMonteCarlo, DetectionsAndTimeMatchEngine) {
  const double rate = 0.01;
  const std::uint64_t job_rounds = 5000;
  const Params params = paper_params();
  const auto est = estimate_reliability(params, Scheme::kDeterministic,
                                        rate, job_rounds);

  core::VdsOptions options;
  options.t = params.t;
  options.c = params.c;
  options.t_cmp = params.t_cmp;
  options.alpha = params.alpha;
  options.s = params.s;
  options.job_rounds = job_rounds;
  options.scheme = core::RecoveryScheme::kRollForwardDet;

  sim::Accumulator detections;
  sim::Accumulator times;
  sim::Accumulator rollbacks;
  fault::FaultConfig fc;
  fc.rate = rate;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    sim::Rng rng(seed);
    auto timeline = fault::generate_timeline(fc, rng, 60000.0);
    core::SmtVds vds(options, sim::Rng(seed + 1000));
    const auto report = vds.run(timeline);
    ASSERT_TRUE(report.completed);
    detections.add(static_cast<double>(report.detections));
    times.add(report.total_time);
    rollbacks.add(static_cast<double>(report.rollbacks));
  }

  EXPECT_NEAR(detections.mean(), est.expected_detections,
              0.15 * est.expected_detections);
  EXPECT_NEAR(times.mean(), est.expected_total_time,
              0.05 * est.expected_total_time);
  // Rollbacks are rare events; allow a generous band.
  EXPECT_NEAR(rollbacks.mean(), est.expected_rollbacks,
              std::max(2.0, est.expected_rollbacks));
}

TEST(ReliabilityMonteCarlo, SilentCorruptionRateMatchesPredictScheme) {
  const double rate = 0.02;
  const std::uint64_t job_rounds = 2000;
  const Params params = paper_params(1.0);
  const auto est = estimate_reliability(params, Scheme::kPrediction, rate,
                                        job_rounds);

  core::VdsOptions options;
  options.t = params.t;
  options.c = params.c;
  options.t_cmp = params.t_cmp;
  options.alpha = params.alpha;
  options.s = params.s;
  options.job_rounds = job_rounds;
  options.scheme = core::RecoveryScheme::kRollForwardPredict;

  int silent = 0;
  int completed = 0;
  fault::FaultConfig fc;
  fc.rate = rate;
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    sim::Rng rng(seed);
    auto timeline = fault::generate_timeline(fc, rng, 30000.0);
    core::SmtVds vds(options, sim::Rng(seed + 2000));
    vds.set_predictor(std::make_unique<fault::OraclePredictor>());
    const auto report = vds.run(timeline);
    if (!report.completed) continue;
    ++completed;
    if (report.silent_corruption) ++silent;
  }
  ASSERT_GT(completed, 100);
  const double measured = static_cast<double>(silent) / completed;
  EXPECT_NEAR(measured, est.p_job_silent,
              std::max(0.1, 0.5 * est.p_job_silent));
}

}  // namespace
}  // namespace vds::model
