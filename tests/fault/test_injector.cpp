#include "fault/injector.hpp"

#include <gtest/gtest.h>

#include <map>

namespace vds::fault {
namespace {

FaultConfig basic_config(double rate) {
  FaultConfig config;
  config.rate = rate;
  return config;
}

TEST(FaultConfig, ValidatesDomains) {
  EXPECT_NO_THROW(basic_config(0.0).validate());
  EXPECT_NO_THROW(basic_config(5.0).validate());
  FaultConfig bad = basic_config(-1.0);
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = basic_config(1.0);
  bad.weight_transient = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = basic_config(1.0);
  bad.locations = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = basic_config(1.0);
  bad.location_uniformity = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = basic_config(1.0);
  bad.victim1_bias = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(Timeline, ZeroRateIsEmpty) {
  vds::sim::Rng rng(1);
  const auto timeline = generate_timeline(basic_config(0.0), rng, 1000.0);
  EXPECT_EQ(timeline.size(), 0u);
  EXPECT_EQ(timeline.next_time(), vds::sim::kTimeInfinity);
}

TEST(Timeline, FaultsAreSortedAndWithinHorizon) {
  vds::sim::Rng rng(2);
  const auto timeline = generate_timeline(basic_config(0.5), rng, 200.0);
  ASSERT_GT(timeline.size(), 0u);
  double prev = 0.0;
  for (const Fault& fault : timeline.faults()) {
    EXPECT_GE(fault.when, prev);
    EXPECT_LT(fault.when, 200.0);
    prev = fault.when;
  }
}

TEST(Timeline, PoissonCountNearExpectation) {
  vds::sim::Rng rng(3);
  const double rate = 0.1;
  const double horizon = 50000.0;
  const auto timeline =
      generate_timeline(basic_config(rate), rng, horizon);
  const double expected = rate * horizon;  // 5000
  EXPECT_NEAR(static_cast<double>(timeline.size()), expected,
              4.0 * std::sqrt(expected));
}

TEST(Timeline, DrainWindowReturnsExactlyWindowFaults) {
  std::vector<Fault> faults;
  for (const double when : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    Fault fault;
    fault.when = when;
    faults.push_back(fault);
  }
  FaultTimeline timeline(std::move(faults));
  EXPECT_EQ(timeline.drain_window(0.0, 2.5).size(), 2u);
  EXPECT_EQ(timeline.drain_window(2.5, 4.0).size(), 1u);  // [2.5, 4.0)
  EXPECT_EQ(timeline.drain_window(4.0, 10.0).size(), 2u);
  EXPECT_EQ(timeline.remaining(), 0u);
}

TEST(Timeline, DrainSkipsFaultsBeforeWindow) {
  std::vector<Fault> faults(3);
  faults[0].when = 1.0;
  faults[1].when = 2.0;
  faults[2].when = 9.0;
  FaultTimeline timeline(std::move(faults));
  // A window starting after the first two skips them.
  const auto got = timeline.drain_window(5.0, 10.0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_DOUBLE_EQ(got[0].when, 9.0);
}

TEST(Timeline, RewindRestartsConsumption) {
  std::vector<Fault> faults(2);
  faults[0].when = 1.0;
  faults[1].when = 2.0;
  FaultTimeline timeline(std::move(faults));
  EXPECT_EQ(timeline.drain_window(0.0, 5.0).size(), 2u);
  timeline.rewind();
  EXPECT_EQ(timeline.drain_window(0.0, 5.0).size(), 2u);
}

TEST(Timeline, ConstructorSortsUnsortedInput) {
  std::vector<Fault> faults(3);
  faults[0].when = 5.0;
  faults[1].when = 1.0;
  faults[2].when = 3.0;
  FaultTimeline timeline(std::move(faults));
  EXPECT_DOUBLE_EQ(timeline.next_time(), 1.0);
}

TEST(SampleBody, KindMixMatchesWeights) {
  vds::sim::Rng rng(4);
  FaultConfig config = basic_config(1.0);
  config.weight_transient = 0.5;
  config.weight_crash = 0.3;
  config.weight_permanent = 0.1;
  config.weight_processor_crash = 0.1;
  std::map<FaultKind, int> counts;
  const int n = 20000;
  for (int k = 0; k < n; ++k) ++counts[sample_fault_body(config, rng).kind];
  EXPECT_NEAR(counts[FaultKind::kTransient] / double(n), 0.5, 0.02);
  EXPECT_NEAR(counts[FaultKind::kCrash] / double(n), 0.3, 0.02);
  EXPECT_NEAR(counts[FaultKind::kPermanent] / double(n), 0.1, 0.02);
  EXPECT_NEAR(counts[FaultKind::kProcessorCrash] / double(n), 0.1, 0.02);
}

TEST(SampleBody, VictimBiasRespected) {
  vds::sim::Rng rng(5);
  FaultConfig config = basic_config(1.0);
  config.victim1_bias = 0.8;
  int v1 = 0;
  const int n = 20000;
  for (int k = 0; k < n; ++k) {
    if (sample_fault_body(config, rng).victim == Victim::kVersion1) ++v1;
  }
  EXPECT_NEAR(v1 / double(n), 0.8, 0.02);
}

TEST(SampleBody, UniformLocationsCoverRange) {
  vds::sim::Rng rng(6);
  FaultConfig config = basic_config(1.0);
  config.locations = 8;
  config.location_uniformity = 1.0;
  std::map<std::uint32_t, int> counts;
  const int n = 16000;
  for (int k = 0; k < n; ++k) ++counts[sample_fault_body(config, rng).location];
  EXPECT_EQ(counts.size(), 8u);
  for (const auto& [loc, c] : counts) {
    EXPECT_LT(loc, 8u);
    EXPECT_NEAR(c, n / 8, n / 8 * 0.2);
  }
}

TEST(SampleBody, SkewConcentratesOnLowLocations) {
  vds::sim::Rng rng(7);
  FaultConfig config = basic_config(1.0);
  config.locations = 16;
  config.location_uniformity = 0.2;  // heavy skew
  int low = 0;
  const int n = 10000;
  for (int k = 0; k < n; ++k) {
    if (sample_fault_body(config, rng).location < 4) ++low;
  }
  // Under uniformity 4/16 = 25% would land below 4; the skew should
  // push well past half.
  EXPECT_GT(low / double(n), 0.5);
}

TEST(FaultDescribe, MentionsKindAndVictim) {
  Fault fault;
  fault.kind = FaultKind::kCrash;
  fault.victim = Victim::kVersion2;
  fault.when = 3.25;
  const std::string text = fault.describe();
  EXPECT_NE(text.find("crash"), std::string::npos);
  EXPECT_NE(text.find("V2"), std::string::npos);
}

}  // namespace
}  // namespace vds::fault
