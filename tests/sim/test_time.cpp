#include "sim/time.hpp"

#include <gtest/gtest.h>

#include "core/report.hpp"

namespace vds {
namespace {

TEST(TimeInfinity, ComparesAboveEverything) {
  EXPECT_GT(sim::kTimeInfinity, 1e300);
}

TEST(RunReport, ToStringMentionsKeyFields) {
  core::RunReport report;
  report.completed = true;
  report.total_time = 123.5;
  report.rounds_committed = 42;
  report.detections = 3;
  report.predictions = 4;
  report.prediction_hits = 3;
  const std::string text = report.to_string();
  EXPECT_NE(text.find("completed"), std::string::npos);
  EXPECT_NE(text.find("rounds=42"), std::string::npos);
  EXPECT_NE(text.find("pred=3/4"), std::string::npos);
}

TEST(RunReport, FailSafeAndSilentFlagsSurfaceLoudly) {
  core::RunReport report;
  report.failed_safe = true;
  EXPECT_NE(report.to_string().find("FAIL-SAFE"), std::string::npos);
  core::RunReport corrupt;
  corrupt.completed = true;
  corrupt.silent_corruption = true;
  EXPECT_NE(corrupt.to_string().find("SILENT-CORRUPTION"),
            std::string::npos);
}

TEST(RunReport, ThroughputAndAccuracyDefaults) {
  core::RunReport report;
  EXPECT_DOUBLE_EQ(report.throughput(), 0.0);
  EXPECT_DOUBLE_EQ(report.predictor_accuracy(), 0.5);
  report.total_time = 10.0;
  report.rounds_committed = 5;
  EXPECT_DOUBLE_EQ(report.throughput(), 0.5);
  report.predictions = 10;
  report.prediction_hits = 7;
  EXPECT_DOUBLE_EQ(report.predictor_accuracy(), 0.7);
}

TEST(RunReport, AdaptiveCountersAppearOnlyWhenUsed) {
  core::RunReport report;
  report.completed = true;
  EXPECT_EQ(report.to_string().find("adaptive"), std::string::npos);
  report.adaptive_det_recoveries = 2;
  report.adaptive_prob_recoveries = 5;
  report.scheme_switches = 1;
  const std::string text = report.to_string();
  EXPECT_NE(text.find("adaptive(det=2,prob=5,switches=1)"),
            std::string::npos);
}

}  // namespace
}  // namespace vds
