#include "scenario/cli.hpp"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/options.hpp"
#include "scenario/engine_factory.hpp"
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

// --- ArgCursor / apply_scenario_flag ----------------------------------

/// Feeds `tokens` (sans argv[0], which ArgCursor skips) through the
/// shared scenario parser; every token must be consumed.
Scenario parse_flags(std::vector<std::string> tokens) {
  tokens.insert(tokens.begin(), "test");
  std::vector<char*> argv;
  argv.reserve(tokens.size());
  for (auto& token : tokens) argv.push_back(token.data());
  ArgCursor args(static_cast<int>(argv.size()), argv.data());
  Scenario scenario;
  while (!args.done()) {
    const std::string arg(args.next());
    if (!apply_scenario_flag(scenario, arg, args)) {
      throw CliError("unknown option '" + arg + "'");
    }
  }
  return scenario;
}

TEST(ScenarioFlags, ParsesEveryFlag) {
  const Scenario scenario = parse_flags(
      {"--engine", "duplex", "--scheme", "retry", "--predictor", "oracle",
       "--adaptive", "--alpha", "0.7", "--beta", "0.2", "--s", "10",
       "--rounds", "500", "--threads", "3", "--seed", "99", "--rate",
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

TEST(ScenarioFlags, UnknownFlagFallsThrough) {
  Scenario scenario;
  std::string prog = "test";
  std::string flag = "--frobnicate";
  char* argv[] = {prog.data(), flag.data()};
  ArgCursor args(2, argv);
  const std::string arg(args.next());
  EXPECT_FALSE(apply_scenario_flag(scenario, arg, args));
  EXPECT_EQ(scenario, Scenario{});  // untouched on fall-through
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
