// Golden trace pin: the full sim::Trace of three manifest runs with
// faults (smt det; smt prob, with its predictor and a discarded
// roll-forward; conv retry) must stay byte-identical to the records
// committed under tests/golden/trace/. The engines build trace text
// only when a trace is attached; this proves that text is unchanged
// when tracing is on.
//
// Regenerate from a trusted build (tests/golden/generate.sh does this):
//   VDS_WRITE_GOLDEN_TRACE=1 build/tests/core_test_trace_golden

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/cli.hpp"
#include "scenario/engine_factory.hpp"

namespace vds {
namespace {

struct GoldenTrace {
  const char* name;
  const char* flags;  ///< vds_cli scenario flags, as in manifest.txt
};

// Names the parameter in test listings (instead of its pointer bytes).
void PrintTo(const GoldenTrace& golden, std::ostream* os) {
  *os << golden.name;
}

constexpr GoldenTrace kTraces[] = {
    {"smt_det_seed1",
     "--engine smt --scheme det --seed 1 --rounds 400 --rate 0.02 "
     "--crash-weight 0.1 --permanent-weight 0.05 --bias 0.7 --skew 0.8"},
    {"smt_prob_seed1",
     "--engine smt --scheme prob --predictor two_bit --seed 1 --rounds 400 "
     "--rate 0.02 --crash-weight 0.1 --permanent-weight 0.05 --bias 0.7 "
     "--skew 0.8"},
    {"conv_retry_seed1",
     "--engine conv --scheme retry --seed 1 --rounds 400 --rate 0.02 "
     "--crash-weight 0.1 --permanent-weight 0.05 --bias 0.7 --skew 0.8"},
};

scenario::Scenario parse_flags(const std::string& flags) {
  std::vector<std::string> tokens{"vds_cli"};
  std::istringstream in(flags);
  for (std::string token; in >> token;) tokens.push_back(token);
  std::vector<char*> argv;
  for (auto& token : tokens) argv.push_back(token.data());
  scenario::Scenario sc;
  scenario::CommandLine cli("", "");
  cli.add("engine", scenario::scenario_fields(), sc)
      .add("single run", scenario::scenario_fields(), sc,
           scenario::kSingleRunFlags);
  EXPECT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  sc.validate();
  return sc;
}

/// Runs the cell exactly as vds_cli does (fault rng = seed, engine and
/// predictor rngs = seed+1 / seed+2) with an unbounded trace, and
/// renders every record as `when<TAB>actor<TAB>kind<TAB>detail`, the
/// time at round-trip precision.
std::string render_trace(const std::string& flags) {
  const scenario::Scenario sc = parse_flags(flags);
  sim::Rng fault_rng(sc.seed);
  auto timeline = scenario::make_timeline(sc, fault_rng);
  auto engine = scenario::make_engine(sc, sim::Rng(sc.seed + 1),
                                      sim::Rng(sc.seed + 2));
  sim::Trace trace;
  (void)engine->run(timeline, &trace);

  std::string out;
  char when[32];
  for (const auto& rec : trace.records()) {
    std::snprintf(when, sizeof when, "%.17g", rec.when);
    out += when;
    out += '\t' + rec.actor + '\t' + std::string(sim::to_string(rec.kind)) +
           '\t' + rec.detail + '\n';
  }
  return out;
}

std::string golden_path(const char* name) {
  return std::string(VDS_GOLDEN_DIR) + "/trace/" + name + ".tsv";
}

class TraceGolden : public ::testing::TestWithParam<GoldenTrace> {};

TEST_P(TraceGolden, RecordsAreByteIdentical) {
  const GoldenTrace& golden = GetParam();
  const std::string actual = render_trace(golden.flags);
  ASSERT_FALSE(actual.empty());

  if (std::getenv("VDS_WRITE_GOLDEN_TRACE") != nullptr) {
    std::ofstream(golden_path(golden.name), std::ios::binary) << actual;
    GTEST_SKIP() << "wrote " << golden_path(golden.name);
  }

  std::ifstream in(golden_path(golden.name), std::ios::binary);
  ASSERT_TRUE(in) << "missing " << golden_path(golden.name);
  std::ostringstream expected;
  expected << in.rdbuf();
  // Compare line by line so a drift names its first record.
  std::istringstream want(expected.str());
  std::istringstream got(actual);
  std::string w;
  std::string g;
  for (int line = 1;; ++line) {
    const bool has_w = static_cast<bool>(std::getline(want, w));
    const bool has_g = static_cast<bool>(std::getline(got, g));
    if (!has_w && !has_g) break;
    ASSERT_EQ(has_w, has_g) << golden.name << ": record count differs at "
                            << "line " << line;
    ASSERT_EQ(w, g) << golden.name << ": first difference at line "
                    << line;
  }
  EXPECT_EQ(expected.str(), actual);
}

INSTANTIATE_TEST_SUITE_P(Manifest, TraceGolden, ::testing::ValuesIn(kTraces),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace vds
