#include "scenario/cli.hpp"

#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/options.hpp"
#include "scenario/campaign_spec.hpp"
#include "scenario/engine_factory.hpp"
#include "scenario/json_reader.hpp"
#include "expect_rejects.hpp"

namespace vds::scenario {
namespace {

// --- strict numeric parsing -------------------------------------------

TEST(StrictParse, DoubleConsumesWholeToken) {
  EXPECT_DOUBLE_EQ(parse_double("--x", "0.25"), 0.25);
  EXPECT_DOUBLE_EQ(parse_double("--x", "-3"), -3.0);
  EXPECT_DOUBLE_EQ(parse_double("--x", "1e-3"), 1e-3);
  EXPECT_REJECTS(parse_double("--x", ""), CliError);
  EXPECT_REJECTS(parse_double("--x", "bogus"), CliError);
  EXPECT_REJECTS(parse_double("--x", "1.5x"), CliError);
  EXPECT_REJECTS(parse_double("--x", "nan"), CliError);
  EXPECT_REJECTS(parse_double("--x", "inf"), CliError);
}

TEST(StrictParse, U64RejectsSignsAndOverflow) {
  EXPECT_EQ(parse_u64("--x", "0"), 0u);
  EXPECT_EQ(parse_u64("--x", "18446744073709551615"),
            18446744073709551615ull);
  EXPECT_REJECTS(parse_u64("--x", "-1"), CliError);
  EXPECT_REJECTS(parse_u64("--x", "+1"), CliError);
  EXPECT_REJECTS(parse_u64("--x", "1.5"), CliError);
  EXPECT_REJECTS(parse_u64("--x", "18446744073709551616"), CliError);
  EXPECT_REJECTS(parse_u64("--x", ""), CliError);
}

TEST(StrictParse, IntRangeChecked) {
  EXPECT_EQ(parse_int("--x", "-42"), -42);
  EXPECT_EQ(parse_int("--x", "2147483647"), 2147483647);
  EXPECT_REJECTS(parse_int("--x", "2147483648"), CliError);
  EXPECT_REJECTS(parse_int("--x", "-2147483649"), CliError);
  EXPECT_REJECTS(parse_int("--x", "12abc"), CliError);
}

TEST(StrictParse, UnsignedRangeChecked) {
  EXPECT_EQ(parse_unsigned("--x", "8"), 8u);
  EXPECT_REJECTS(parse_unsigned("--x", "-8"), CliError);
  EXPECT_REJECTS(parse_unsigned("--x", "4294967296"), CliError);
}

TEST(StrictParse, ErrorNamesTheFlag) {
  try {
    const double parsed = parse_double("--alpha", "bogus");
    FAIL() << "expected CliError, got " << parsed;
  } catch (const CliError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("--alpha"), std::string::npos);
    EXPECT_NE(what.find("bogus"), std::string::npos);
  }
}

/// Runs `thunk`, which must throw CliError, and asserts the message is
/// exactly the canonical strict-parse shape:
///   FLAG: expected WANTED, got 'VALUE'
template <typename Thunk>
void expect_bad_value_shape(Thunk thunk, const std::string& flag,
                            const std::string& value) {
  try {
    thunk();
    FAIL() << "expected CliError for " << flag << "=" << value;
  } catch (const CliError& error) {
    const std::string what = error.what();
    EXPECT_EQ(what.rfind(flag + ": expected ", 0), 0u) << what;
    const std::string tail = ", got '" + value + "'";
    ASSERT_GE(what.size(), tail.size()) << what;
    EXPECT_EQ(what.substr(what.size() - tail.size()), tail) << what;
  }
}

TEST(StrictParse, BadValueEmitsTheCanonicalShape) {
  expect_bad_value_shape(
      [] { bad_value("--grid", "zero", "a positive round number"); },
      "--grid", "zero");
  try {
    bad_value("--kinds", "bogus", "transient, crash, permanent or "
                                  "processor_crash");
  } catch (const CliError& error) {
    EXPECT_STREQ(error.what(),
                 "--kinds: expected transient, crash, permanent or "
                 "processor_crash, got 'bogus'");
  }
}

TEST(StrictParse, EveryNumericParserUsesTheShape) {
  expect_bad_value_shape([] { (void)parse_double("--alpha", "1.5x"); },
                         "--alpha", "1.5x");
  expect_bad_value_shape([] { (void)parse_u64("--seed", "-1"); }, "--seed",
                         "-1");
  expect_bad_value_shape([] { (void)parse_int("--s", "2147483648"); },
                         "--s", "2147483648");
  expect_bad_value_shape([] { (void)parse_unsigned("--threads", "-8"); },
                         "--threads", "-8");
}

// --- field tables and CommandLine ------------------------------------

/// argv for `tokens`, with a program name in front.
struct Argv {
  explicit Argv(std::vector<std::string> tokens) : storage(std::move(tokens)) {
    storage.insert(storage.begin(), "test");
    for (auto& token : storage) pointers.push_back(token.data());
  }
  [[nodiscard]] int argc() const { return static_cast<int>(pointers.size()); }
  std::vector<std::string> storage;
  std::vector<char*> pointers;
};

/// Parses `tokens` through vds_cli's scenario tables (engine under test
/// plus single run); every token must be a flag of those tables.
Scenario parse_flags(std::vector<std::string> tokens) {
  Argv argv(std::move(tokens));
  Scenario scenario;
  CommandLine cli("", "");
  cli.add("engine", scenario_fields(), scenario)
      .add("single run", scenario_fields(), scenario, kSingleRunFlags);
  EXPECT_TRUE(cli.parse(argv.argc(), argv.pointers.data()));
  return scenario;
}

CampaignSpec parse_campaign_flags(std::vector<std::string> tokens) {
  Argv argv(std::move(tokens));
  CampaignSpec spec;
  CommandLine cli("", "");
  cli.add("campaign", campaign_fields(), spec);
  EXPECT_TRUE(cli.parse(argv.argc(), argv.pointers.data()));
  return spec;
}

TEST(ScenarioFlags, ParsesEveryFlag) {
  const Scenario scenario = parse_flags(
      {"--engine", "duplex", "--scheme", "retry", "--predictor", "oracle",
       "--adaptive", "--alpha", "0.7", "--beta", "0.2", "--s", "10",
       "--rounds", "500", "--hw-threads", "3", "--seed", "99", "--rate",
       "0.05", "--crash-weight", "0.1", "--permanent-weight", "0.2",
       "--bias", "0.6", "--locations", "8", "--skew", "0.5"});
  EXPECT_EQ(scenario.engine, EngineKind::kDuplex);
  EXPECT_EQ(scenario.scheme, core::RecoveryScheme::kStopAndRetry);
  EXPECT_EQ(scenario.predictor, "oracle");
  EXPECT_TRUE(scenario.adaptive);
  EXPECT_DOUBLE_EQ(scenario.alpha, 0.7);
  EXPECT_DOUBLE_EQ(scenario.beta, 0.2);
  EXPECT_EQ(scenario.s, 10);
  EXPECT_EQ(scenario.rounds, 500u);
  EXPECT_EQ(scenario.threads, 3);
  EXPECT_EQ(scenario.seed, 99u);
  EXPECT_DOUBLE_EQ(scenario.rate, 0.05);
  EXPECT_DOUBLE_EQ(scenario.crash_weight, 0.1);
  EXPECT_DOUBLE_EQ(scenario.permanent_weight, 0.2);
  EXPECT_DOUBLE_EQ(scenario.bias, 0.6);
  EXPECT_EQ(scenario.locations, 8u);
  EXPECT_DOUBLE_EQ(scenario.skew, 0.5);
}

TEST(ScenarioFlags, AcceptsBothSchemeSpellings) {
  EXPECT_EQ(parse_flags({"--scheme", "det"}).scheme,
            core::RecoveryScheme::kRollForwardDet);
  EXPECT_EQ(parse_flags({"--scheme", "roll_forward_det"}).scheme,
            core::RecoveryScheme::kRollForwardDet);
}

TEST(ScenarioFlags, RejectsBadValues) {
  EXPECT_THROW(parse_flags({"--engine", "warp"}), CliError);
  EXPECT_THROW(parse_flags({"--scheme", "warp"}), CliError);
  EXPECT_THROW(parse_flags({"--alpha", "fast"}), CliError);
  EXPECT_THROW(parse_flags({"--rounds", "-1"}), CliError);
  EXPECT_THROW(parse_flags({"--locations", "4294967296"}), CliError);
  // Flag at end of argv with its value missing.
  EXPECT_THROW(parse_flags({"--alpha"}), CliError);
}

TEST(ScenarioFlags, UnknownFlagIsAUsageError) {
  Argv argv({"--frobnicate"});
  Scenario scenario;
  CommandLine cli("", "");
  cli.add("engine", scenario_fields(), scenario);
  EXPECT_REJECTS(cli.parse(argv.argc(), argv.pointers.data()), CliError);
  EXPECT_EQ(scenario, Scenario{});  // untouched
}

TEST(ScenarioFlags, CampaignToolsLackTheSingleRunFlags) {
  // Campaigns draw their own faults, so only a tool that adds the
  // single-run group accepts the fault-process flags.
  Argv argv({"--rate", "5"});
  Scenario scenario;
  CommandLine cli("", "");
  cli.add("engine", scenario_fields(), scenario);
  EXPECT_REJECTS(cli.parse(argv.argc(), argv.pointers.data()), CliError);
}

TEST(CommandLine, TwoTablesClaimingOneFlagFailAtStartup) {
  Scenario scenario;
  CampaignSpec campaign;
  CommandLine cli("", "");
  cli.add("single run", scenario_fields(), scenario, kSingleRunFlags);
  EXPECT_THROW(cli.add("campaign", campaign_fields(), campaign),
               std::logic_error);  // both claim --seed
}

TEST(CommandLine, UsageShowsLiveDefaultsOncePerFlag) {
  Scenario scenario;
  scenario.rounds = 60;
  CommandLine cli("head\n", "tail\n");
  cli.add("engine under test", scenario_fields(), scenario);
  const std::string usage = cli.usage();
  EXPECT_NE(usage.find("job length in rounds [60]"), std::string::npos)
      << usage;
  EXPECT_EQ(usage.find("--hw-threads"), usage.rfind("--hw-threads"));
  EXPECT_EQ(usage.find("--seed"), std::string::npos);
}

TEST(CampaignFlags, TargetCiZeroMeansOff) {
  EXPECT_DOUBLE_EQ(parse_campaign_flags({"--target-ci", "0"}).target_ci,
                   0.0);
  EXPECT_DOUBLE_EQ(parse_campaign_flags({"--target-ci", "0.05"}).target_ci,
                   0.05);
  EXPECT_THROW(parse_campaign_flags({"--target-ci", "-0.1"}), CliError);
}

TEST(CampaignFlags, ReplicasZeroIsAUsageError) {
  EXPECT_THROW(parse_campaign_flags({"--replicas", "0"}), CliError);
}

// --- flag/JSON parity -------------------------------------------------

/// A valid sample and a rejected value ("" = none to test), spelled for
/// the command line and for JSON.
struct Sample {
  std::string flag_text;
  std::string json_text;
  std::string bad_flag_text;
  std::string bad_json_text;
};

/// Every field with both a flag and a JSON key must have a sample here,
/// so a new field cannot skip the parity check.
const std::map<std::string, Sample>& samples() {
  static const std::map<std::string, Sample> table = {
      {"--engine", {"dme", "\"dme\"", "warp", "\"warp\""}},
      {"--scheme", {"prob", "\"prob\"", "hope", "\"hope\""}},
      {"--predictor", {"two_bit", "\"two_bit\"", "crystal", "\"crystal\""}},
      {"--adaptive", {"", "true", "", ""}},
      {"--alpha", {"0.7", "0.7", "", ""}},
      {"--beta", {"0.2", "0.2", "", ""}},
      {"--s", {"12", "12", "2147483648", "2147483648"}},
      {"--rounds", {"600", "600", "-1", "-1"}},
      {"--hw-threads", {"5", "5", "", ""}},
      {"--seed", {"18446744073709551615", "18446744073709551615", "", ""}},
      {"--rate", {"0.002", "0.002", "", ""}},
      {"--crash-weight", {"0.1", "0.1", "", ""}},
      {"--permanent-weight", {"0.05", "0.05", "", ""}},
      {"--bias", {"0.75", "0.75", "", ""}},
      {"--locations", {"32", "32", "4294967296", "4294967296"}},
      {"--skew", {"0.5", "0.5", "", ""}},
      {"--replay-window", {"8", "8", "", ""}},
      {"--replay-overhead", {"0.02", "0.02", "", ""}},
      {"--decorrelation", {"0.9", "0.9", "", ""}},
      {"--common-mode", {"0.1", "0.1", "", ""}},
      {"--replicas", {"7", "7", "0", "0"}},
      {"--grid", {"1,3", "[1, 3]", "1,0", "[1, 0]"}},
      {"--kinds",
       {"crash,transient", "[\"crash\", \"transient\"]", "meteor",
        "[\"meteor\"]"}},
      {"--fixed-offset", {"0.25", "0.25", "", ""}},
      {"--cell-timeout", {"2.5", "2.5", "-1", "-1"}},
      {"--max-retries", {"4", "4", "4294967296", "4294967296"}},
      {"--target-ci", {"0.05", "0.05", "-0.5", "-0.5"}},
      {"--min-replicas", {"16", "16", "0", "0"}},
      {"--max-replicas", {"2000", "2000", "0", "0"}},
      {"--batch", {"64", "64", "0", "0"}},
  };
  return table;
}

/// Sets one field of a fresh C through its flag, and one through its
/// JSON key (read by the same table, without cross-field validation).
template <typename C, typename Fields>
void expect_flag_json_parity(const Fields& fields, std::string_view context,
                             std::uint8_t group_count) {
  for (const Field<C>& field : fields) {
    if (field.flag.empty() || field.key.empty()) continue;
    const std::string flag(field.flag);
    const auto sample = samples().find(flag);
    ASSERT_NE(sample, samples().end()) << "no parity sample for " << flag;
    const auto json_doc = [&](const std::string& value) {
      const std::string member = "\"" + std::string(field.key) + "\": " + value;
      return parse_json(field.section.empty()
                            ? "{" + member + "}"
                            : "{\"" + std::string(field.section) + "\": {" +
                                  member + "}}");
    };
    const auto by_flag = [&](const std::string& text) {
      std::vector<std::string> tokens{flag};
      if (!field.meta.empty()) tokens.push_back(text);
      Argv argv(tokens);
      C config;
      CommandLine cli("", "");
      for (std::uint8_t group = 0; group < group_count; ++group) {
        cli.add("table", fields, config, group);
      }
      EXPECT_TRUE(cli.parse(argv.argc(), argv.pointers.data()));
      return config;
    };
    const auto by_json = [&](const std::string& value) {
      C config;
      read_fields(json_doc(value), fields, config, context);
      return config;
    };
    EXPECT_EQ(by_flag(sample->second.flag_text),
              by_json(sample->second.json_text))
        << flag;
    EXPECT_NE(by_json(sample->second.json_text), C{}) << flag;
    if (!sample->second.bad_flag_text.empty()) {
      EXPECT_THROW(by_flag(sample->second.bad_flag_text), CliError) << flag;
      EXPECT_THROW(by_json(sample->second.bad_json_text), std::exception)
          << flag;
    }
  }
}

TEST(FieldTables, ScenarioFlagAndJsonAgree) {
  expect_flag_json_parity<Scenario>(scenario_fields(), "Scenario", 2);
}

TEST(FieldTables, CampaignFlagAndJsonAgree) {
  expect_flag_json_parity<CampaignSpec>(campaign_fields(), "campaign", 1);
}

// --- engine factory ---------------------------------------------------

TEST(EngineFactory, BuildsEveryEngineKind) {
  for (const EngineKind kind : kAllEngineKinds) {
    Scenario scenario;
    scenario.engine = kind;
    const auto engine = make_engine(scenario, vds::sim::Rng(1),
                                    vds::sim::Rng(2));
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->kind(), to_string(kind)) << to_string(kind);
  }
}

TEST(EngineFactory, EnginesRunUnderOneInterface) {
  for (const EngineKind kind : kAllEngineKinds) {
    Scenario scenario;
    scenario.engine = kind;
    scenario.rounds = 50;
    vds::sim::Rng fault_rng(scenario.seed);
    auto timeline = make_timeline(scenario, fault_rng);
    const auto engine = make_engine(scenario, vds::sim::Rng(2),
                                    vds::sim::Rng(3));
    const auto report = engine->run(timeline);
    EXPECT_TRUE(report.completed) << to_string(kind);
    EXPECT_GT(report.total_time, 0.0) << to_string(kind);
  }
}

TEST(EngineFactory, KnownPredictorsConstruct) {
  for (const char* name :
       {"random", "oracle", "static1", "static2", "last", "two_bit",
        "history", "tournament", "perceptron", "crash"}) {
    EXPECT_TRUE(known_predictor(name)) << name;
    EXPECT_NE(make_predictor(name, vds::sim::Rng(1)), nullptr) << name;
  }
  EXPECT_FALSE(known_predictor("bogus"));
  EXPECT_THROW(make_predictor("bogus", vds::sim::Rng(1)),
               std::invalid_argument);
}

TEST(EngineFactory, InvalidScenarioRejected) {
  Scenario scenario;
  scenario.rounds = 0;
  EXPECT_THROW(make_engine(scenario, vds::sim::Rng(1), vds::sim::Rng(2)),
               std::invalid_argument);
}

}  // namespace
}  // namespace vds::scenario
