#include "scenario/scenario.hpp"

#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/options.hpp"
#include "expect_rejects.hpp"
#include "scenario/json_reader.hpp"

namespace vds::scenario {
namespace {

std::string json_of(const Scenario& scenario) {
  std::ostringstream os;
  scenario.to_json(os);
  return os.str();
}

TEST(EngineKindNames, ExhaustiveRoundTrip) {
  for (const EngineKind kind : kAllEngineKinds) {
    EXPECT_EQ(parse_engine_kind(to_string(kind)), kind)
        << to_string(kind);
  }
  EXPECT_REJECTS(parse_engine_kind("bogus"), std::invalid_argument);
  EXPECT_REJECTS(parse_engine_kind(""), std::invalid_argument);
  EXPECT_REJECTS(parse_engine_kind("SMT"), std::invalid_argument);
}

TEST(EngineKindNames, ListIsGeneratedFromTheRegistry) {
  // The diagnostic list is derived, not hand-kept: every registered
  // kind appears, in registry order, with " or " before the last.
  EXPECT_EQ(engine_kind_list(), "smt, conv, srt, duplex, replay or dme");
}

TEST(Scenario, DefaultsValidateForEveryEngine) {
  for (const EngineKind kind : kAllEngineKinds) {
    Scenario scenario;
    scenario.engine = kind;
    EXPECT_NO_THROW(scenario.validate()) << to_string(kind);
  }
}

TEST(Scenario, JsonRoundTripPreservesEveryField) {
  Scenario scenario;
  scenario.engine = EngineKind::kConv;
  scenario.scheme = core::RecoveryScheme::kStopAndRetry;
  scenario.predictor = "two_bit";
  scenario.adaptive = true;
  scenario.alpha = 0.8;
  scenario.beta = 0.05;
  scenario.s = 7;
  scenario.rounds = 123456789012345ull;
  scenario.threads = 3;
  scenario.seed = 18446744073709551615ull;  // u64 max must survive
  scenario.rate = 0.002;
  scenario.crash_weight = 0.1;
  scenario.permanent_weight = 0.05;
  scenario.bias = 0.75;
  scenario.locations = 32;
  scenario.skew = 0.5;
  scenario.srt_compare_overhead = 0.2;
  scenario.srt_chunks_per_round = 50;
  scenario.duplex_processors = 4;
  scenario.replay_window = 8;
  scenario.replay_record_overhead = 0.02;
  scenario.dme_decorrelation = 0.9;
  scenario.dme_common_mode = 0.1;

  const Scenario parsed = Scenario::from_json(json_of(scenario));
  EXPECT_EQ(parsed, scenario);
  // Serialization is canonical: round-tripping again is bytewise stable.
  EXPECT_EQ(json_of(parsed), json_of(scenario));
}

TEST(Scenario, FromJsonAppliesDefaultsForAbsentFields) {
  const Scenario parsed =
      Scenario::from_json(R"({"schema": "vds.scenario.v1"})");
  EXPECT_EQ(parsed, Scenario{});
}

TEST(Scenario, FromJsonRejectsUnknownKeys) {
  EXPECT_THROW(Scenario::from_json(
                   R"({"schema": "vds.scenario.v1", "bogus": 1})"),
               std::invalid_argument);
  EXPECT_THROW(
      Scenario::from_json(
          R"({"schema": "vds.scenario.v1", "fault": {"bogus": 1}})"),
      std::invalid_argument);
}

TEST(Scenario, FromJsonRejectsWrongSchemaOrShape) {
  EXPECT_THROW(Scenario::from_json("{}"), std::invalid_argument);
  EXPECT_THROW(Scenario::from_json(R"({"schema": "vds.scenario.v2"})"),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_json("[1, 2]"), std::invalid_argument);
  EXPECT_THROW(Scenario::from_json("not json"), JsonError);
  // Nested sections must be objects.
  EXPECT_THROW(
      Scenario::from_json(R"({"schema": "vds.scenario.v1", "srt": 3})"),
      std::invalid_argument);
}

TEST(Scenario, FromJsonRejectsInvalidValues) {
  // Parses fine, fails Scenario::validate().
  EXPECT_THROW(Scenario::from_json(
                   R"({"schema": "vds.scenario.v1", "alpha": 0.2})"),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_json(
                   R"({"schema": "vds.scenario.v1", "rounds": 0})"),
               std::invalid_argument);
  EXPECT_THROW(Scenario::from_json(
                   R"({"schema": "vds.scenario.v1", "scheme": "bogus"})"),
               std::invalid_argument);
  EXPECT_THROW(
      Scenario::from_json(
          R"({"schema": "vds.scenario.v1", "predictor": "bogus"})"),
      std::invalid_argument);
  // Type mismatch inside a known key.
  EXPECT_THROW(Scenario::from_json(
                   R"({"schema": "vds.scenario.v1", "s": "twenty"})"),
               JsonError);
}

TEST(Scenario, ValidateRejectsBrokenConfigs) {
  Scenario scenario;
  scenario.rounds = 0;
  EXPECT_THROW(scenario.validate(), std::invalid_argument);

  scenario = {};
  scenario.predictor = "nope";
  EXPECT_THROW(scenario.validate(), std::invalid_argument);

  scenario = {};
  scenario.alpha = 0.3;  // out of [0.5, 1] for smt
  EXPECT_THROW(scenario.validate(), std::invalid_argument);

  scenario = {};
  scenario.engine = EngineKind::kDuplex;
  scenario.duplex_processors = 1;
  EXPECT_THROW(scenario.validate(), std::invalid_argument);

  scenario = {};
  scenario.engine = EngineKind::kSrt;
  scenario.srt_chunks_per_round = 0;
  EXPECT_THROW(scenario.validate(), std::invalid_argument);

  scenario = {};
  scenario.crash_weight = 0.8;
  scenario.permanent_weight = 0.8;  // transient weight goes negative
  EXPECT_THROW(scenario.validate(), std::invalid_argument);

  scenario = {};
  scenario.engine = EngineKind::kReplay;
  scenario.replay_window = 0;
  EXPECT_THROW(scenario.validate(), std::invalid_argument);

  scenario = {};
  scenario.engine = EngineKind::kDme;
  scenario.dme_decorrelation = 1.5;
  EXPECT_THROW(scenario.validate(), std::invalid_argument);

  // The broken extras are tolerated while another engine is selected:
  // only the selected engine's config is constructed.
  scenario = {};
  scenario.replay_window = 0;
  scenario.dme_decorrelation = 1.5;
  EXPECT_NO_THROW(scenario.validate());
}

// The conversions are THE wiring contract: each engine config must get
// exactly the fields the tools used to set by hand.
TEST(Scenario, VdsOptionsWiring) {
  Scenario scenario;
  scenario.scheme = core::RecoveryScheme::kRollForwardProb;
  scenario.adaptive = true;
  scenario.alpha = 0.7;
  scenario.beta = 0.2;
  scenario.s = 10;
  scenario.rounds = 500;
  scenario.threads = 5;
  const auto options = scenario.vds_options();
  EXPECT_DOUBLE_EQ(options.t, 1.0);
  EXPECT_DOUBLE_EQ(options.c, 0.2);
  EXPECT_DOUBLE_EQ(options.t_cmp, 0.2);
  EXPECT_DOUBLE_EQ(options.alpha, 0.7);
  EXPECT_EQ(options.s, 10);
  EXPECT_EQ(options.job_rounds, 500u);
  EXPECT_EQ(options.scheme, core::RecoveryScheme::kRollForwardProb);
  EXPECT_TRUE(options.adaptive_scheme);
  EXPECT_EQ(options.hardware_threads, 5);
}

TEST(Scenario, BaselineAndFaultWiring) {
  Scenario scenario;
  scenario.beta = 0.15;
  scenario.s = 12;
  scenario.rounds = 600;
  scenario.rate = 0.03;
  scenario.crash_weight = 0.2;
  scenario.permanent_weight = 0.1;
  scenario.bias = 0.9;
  scenario.locations = 8;
  scenario.skew = 0.25;
  scenario.srt_compare_overhead = 0.3;
  scenario.srt_chunks_per_round = 10;
  scenario.duplex_processors = 3;

  const auto srt = scenario.srt_config();
  EXPECT_DOUBLE_EQ(srt.alpha, scenario.alpha);
  EXPECT_EQ(srt.s, 12);
  EXPECT_EQ(srt.job_rounds, 600u);
  EXPECT_DOUBLE_EQ(srt.compare_overhead, 0.3);
  EXPECT_EQ(srt.chunks_per_round, 10);

  const auto duplex = scenario.duplex_config();
  EXPECT_DOUBLE_EQ(duplex.t_cmp, 0.15);
  EXPECT_EQ(duplex.s, 12);
  EXPECT_EQ(duplex.job_rounds, 600u);
  EXPECT_EQ(duplex.processors, 3);

  const auto fault = scenario.fault_config();
  EXPECT_DOUBLE_EQ(fault.rate, 0.03);
  EXPECT_DOUBLE_EQ(fault.weight_transient, 0.7);
  EXPECT_DOUBLE_EQ(fault.weight_crash, 0.2);
  EXPECT_DOUBLE_EQ(fault.weight_permanent, 0.1);
  EXPECT_DOUBLE_EQ(fault.victim1_bias, 0.9);
  EXPECT_EQ(fault.locations, 8u);
  EXPECT_DOUBLE_EQ(fault.location_uniformity, 0.25);
}

TEST(Scenario, ReplayAndDmeWiring) {
  Scenario scenario;
  scenario.alpha = 0.7;
  scenario.beta = 0.2;
  scenario.s = 12;
  scenario.rounds = 600;
  scenario.replay_window = 8;
  scenario.replay_record_overhead = 0.02;
  scenario.dme_decorrelation = 0.9;
  scenario.dme_common_mode = 0.1;

  const auto replay = scenario.replay_config();
  EXPECT_DOUBLE_EQ(replay.alpha, 0.7);
  EXPECT_DOUBLE_EQ(replay.compare_time, 0.2);
  EXPECT_EQ(replay.s, 12);
  EXPECT_EQ(replay.job_rounds, 600u);
  EXPECT_EQ(replay.window, 8);
  EXPECT_DOUBLE_EQ(replay.record_overhead, 0.02);

  const auto dme = scenario.dme_config();
  EXPECT_DOUBLE_EQ(dme.alpha, 0.7);
  EXPECT_DOUBLE_EQ(dme.t_cmp, 0.2);
  EXPECT_EQ(dme.s, 12);
  EXPECT_EQ(dme.job_rounds, 600u);
  EXPECT_DOUBLE_EQ(dme.decorrelation, 0.9);
  EXPECT_DOUBLE_EQ(dme.common_mode, 0.1);
}

TEST(Scenario, FingerprintChangesWithAnyField) {
  // The canonical JSON bytes: any field change changes them.
  const Scenario base;
  Scenario changed = base;
  changed.seed = 2;
  EXPECT_NE(json_of(base), json_of(changed));
  changed = base;
  changed.engine = EngineKind::kSrt;
  EXPECT_NE(json_of(base), json_of(changed));
  changed = base;
  changed.replay_window = 8;
  EXPECT_NE(json_of(base), json_of(changed));
  changed = base;
  changed.dme_decorrelation = 0.75;
  EXPECT_NE(json_of(base), json_of(changed));
  EXPECT_EQ(json_of(base), json_of(Scenario{}));
}

}  // namespace
}  // namespace vds::scenario
