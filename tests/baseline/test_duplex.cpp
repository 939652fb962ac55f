#include "baseline/duplex.hpp"

#include <gtest/gtest.h>

namespace vds::baseline {
namespace {

using vds::fault::Fault;
using vds::fault::FaultKind;
using vds::fault::FaultTimeline;
using vds::fault::Victim;

DuplexConfig base_config() {
  DuplexConfig config;
  config.t = 1.0;
  config.t_cmp = 0.1;
  config.s = 20;
  config.job_rounds = 100;
  return config;
}

Fault transient_on(Victim victim, double when) {
  Fault fault;
  fault.when = when;
  fault.kind = FaultKind::kTransient;
  fault.victim = victim;
  return fault;
}

TEST(DuplexConfig, Validation) {
  EXPECT_NO_THROW(base_config().validate());
  DuplexConfig bad = base_config();
  bad.processors = 1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = base_config();
  bad.t = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(PhysicalDuplex, FaultFreeTiming) {
  PhysicalDuplex duplex(base_config(), vds::sim::Rng(1));
  FaultTimeline timeline(std::vector<Fault>{});
  const auto report = duplex.run(timeline);
  EXPECT_TRUE(report.completed);
  // Full-speed rounds: t + t_cmp each, no alpha, no context switches.
  EXPECT_NEAR(report.total_time, 100.0 * 1.1, 1e-9);
}

TEST(PhysicalDuplex, SingleFaultRecoversViaVote) {
  PhysicalDuplex duplex(base_config(), vds::sim::Rng(2));
  FaultTimeline timeline({transient_on(Victim::kVersion1, 5.6)});
  const auto report = duplex.run(timeline);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.detections, 1u);
  EXPECT_EQ(report.recoveries_ok, 1u);
  EXPECT_EQ(report.rollbacks, 0u);
}

TEST(PhysicalDuplex, DoubleFaultRollsBack) {
  PhysicalDuplex duplex(base_config(), vds::sim::Rng(3));
  FaultTimeline timeline({transient_on(Victim::kVersion1, 5.55),
                          transient_on(Victim::kVersion2, 5.6)});
  const auto report = duplex.run(timeline);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.rollbacks, 1u);
}

TEST(PhysicalDuplex, RepeatedDoubleFaultsFailSafe) {
  DuplexConfig config = base_config();
  config.max_consecutive_failures = 2;
  std::vector<Fault> faults;
  // Double faults in every round for a while: rollback can never make
  // progress.
  for (int k = 0; k < 40; ++k) {
    faults.push_back(transient_on(Victim::kVersion1, 0.2 + k * 1.1));
    faults.push_back(transient_on(Victim::kVersion2, 0.3 + k * 1.1));
  }
  PhysicalDuplex duplex(config, vds::sim::Rng(4));
  FaultTimeline timeline(std::move(faults));
  const auto report = duplex.run(timeline);
  EXPECT_TRUE(report.failed_safe);
  EXPECT_FALSE(report.completed);
}

TEST(PhysicalDuplex, ProcessorCrashIsDetected) {
  PhysicalDuplex duplex(base_config(), vds::sim::Rng(5));
  Fault crash = transient_on(Victim::kVersion1, 3.0);
  crash.kind = FaultKind::kProcessorCrash;
  FaultTimeline timeline({crash});
  const auto report = duplex.run(timeline);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.detections, 1u);
}

}  // namespace
}  // namespace vds::baseline
