// vds_cli -- command-line driver for the VDS simulators.
//
//   vds_cli --engine smt --scheme det --alpha 0.65 --rate 0.01
//           --rounds 10000 --seed 7 --model
//
// Runs one protocol simulation and prints the run report; with --model
// it also prints the paper's closed-form predictions for the same
// configuration, and with --events N the first N protocol events.
//
// Configuration is a scenario::Scenario: load one with --scenario FILE
// (vds.scenario.v1 JSON), override fields with flags, or print the
// effective scenario with --emit-scenario.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "model/gain.hpp"
#include "model/limits.hpp"
#include "model/reliability.hpp"
#include "runtime/journal.hpp"
#include "scenario/cli.hpp"
#include "scenario/engine_factory.hpp"
#include "scenario/report_json.hpp"

namespace {

constexpr const char* kUsageHead = R"(usage: vds_cli [options]

Runs one protocol simulation and prints the run report.
)";

constexpr const char* kUsageTail = R"(
exit codes: 0 success; 1 job did not complete; 2 usage/parse error;
3 runtime failure.
)";

struct OutputOptions {
  bool model = false;
  bool json = false;
  bool emit_scenario = false;
  std::size_t trace = 0;
};

const vds::scenario::Field<OutputOptions> kOutputFlags[] = {
    {"--model", "", "print closed-form predictions", &OutputOptions::model},
    {"--events", "N", "dump the first N protocol events",
     &OutputOptions::trace},
    {"--json", "",
     "machine-readable report on stdout\n(schema vds.run_report.v1)",
     &OutputOptions::json},
    {"--emit-scenario", "",
     "print the effective scenario as\nvds.scenario.v1 JSON and exit",
     &OutputOptions::emit_scenario},
};

int run_cli(int argc, char** argv) {
  vds::scenario::Scenario scenario;
  vds::scenario::Observability observability;
  OutputOptions out;

  vds::scenario::CommandLine cli(kUsageHead, kUsageTail);
  cli.add("engine under test", vds::scenario::scenario_fields(), scenario)
      .add("single run", vds::scenario::scenario_fields(), scenario,
           vds::scenario::kSingleRunFlags)
      .add("observability", vds::scenario::observability_fields(),
           observability)
      .add("output", kOutputFlags, out);
  if (!cli.parse(argc, argv)) return 0;
  scenario.validate();

  if (out.emit_scenario) {
    scenario.to_json(std::cout);
    std::cout << '\n';
    return 0;
  }

  observability.arm();
  vds::sim::Rng fault_rng(scenario.seed);
  auto timeline = vds::scenario::make_timeline(scenario, fault_rng);
  if (!out.json) {
    std::printf("faults scheduled: %zu over horizon %.0f\n",
                timeline.size(), scenario.horizon());
  }

  vds::sim::Trace trace(/*enabled=*/out.trace > 0, /*cap=*/out.trace);

  // Engine and predictor seeds derive from the scenario seed exactly
  // as before the scenario layer existed: seed+1 / seed+2.
  auto engine = vds::scenario::make_engine(
      scenario, vds::sim::Rng(scenario.seed + 1),
      vds::sim::Rng(scenario.seed + 2));
  const vds::core::RunReport report = engine->run(timeline, &trace);

  if (out.json) {
    // Same report schema as vds_mc snapshots / the runtime journal,
    // through the envelope writer vds_serve shares.
    vds::runtime::JsonWriter json(std::cout);
    vds::scenario::write_run_report(
        json, scenario, static_cast<std::uint64_t>(timeline.size()),
        report);
    observability.write();
    return report.completed ? 0 : 1;
  }

  std::printf("%s\n", report.to_string().c_str());

  if (out.trace > 0) {
    std::printf("\nfirst %zu protocol events:\n", out.trace);
    trace.dump(std::cout);
  }

  const bool vds_engine =
      scenario.engine == vds::scenario::EngineKind::kSmt ||
      scenario.engine == vds::scenario::EngineKind::kConv;
  if (out.model && vds_engine) {
    const auto params = vds::model::Params::with_beta(
        std::clamp(scenario.alpha, 0.5, 1.0), scenario.beta, scenario.s,
        report.predictor_accuracy());
    std::printf("\nclosed-form predictions at measured p = %.3f:\n",
                report.predictor_accuracy());
    std::printf("  G_round (eq 4)        = %.4f\n",
                vds::model::gain_round(params));
    std::printf("  mean G_det (eq 7)     = %.4f\n",
                vds::model::mean_gain_det(params));
    std::printf("  mean G_prob (eq 8)    = %.4f\n",
                vds::model::mean_gain_prob(params));
    std::printf("  mean G_corr (eq 13)   = %.4f\n",
                vds::model::mean_gain_corr(params));
    std::printf("  G_max (s -> inf)      = %.4f\n",
                vds::model::g_max(params));
    const auto scheme =
        scenario.scheme == vds::core::RecoveryScheme::kRollForwardProb
            ? vds::model::Scheme::kProbabilistic
        : scenario.scheme == vds::core::RecoveryScheme::kRollForwardPredict
            ? vds::model::Scheme::kPrediction
            : vds::model::Scheme::kDeterministic;
    const auto est = vds::model::estimate_reliability(
        params, scheme, scenario.rate, scenario.rounds);
    std::printf("  expected detections   = %.1f (measured %llu)\n",
                est.expected_detections,
                static_cast<unsigned long long>(report.detections));
    std::printf("  expected total time   = %.1f (measured %.1f)\n",
                est.expected_total_time, report.total_time);
    std::printf("  P(silent corruption)  = %.4f\n", est.p_job_silent);
  }
  observability.write();
  return report.completed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const vds::scenario::CliError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  } catch (const std::invalid_argument& error) {
    // scenario.validate() rejects inconsistent configurations
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 3;
  }
}
