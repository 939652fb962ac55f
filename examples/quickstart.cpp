// Quickstart: the public API in ~60 lines.
//
// 1. Describe the VDS (round time, overheads, SMT alpha, checkpoint
//    interval, recovery scheme).
// 2. Generate a fault process.
// 3. Run the protocol engine and read the report.
// 4. Compare with the paper's closed-form prediction.

#include <cstdio>

#include "core/smt_engine.hpp"
#include "core/conventional.hpp"
#include "model/gain.hpp"
#include "model/limits.hpp"

int main() {
  using namespace vds;

  // --- 1. configure the virtual duplex system -------------------------
  core::VdsOptions options;
  options.t = 1.0;        // one round of useful work = 1 time unit
  options.c = 0.1;        // context switch (conventional processor)
  options.t_cmp = 0.1;    // state comparison
  options.alpha = 0.65;   // SMT slowdown factor (Pentium-4 figure)
  options.s = 20;         // checkpoint every 20 rounds
  options.job_rounds = 5000;
  options.scheme = core::RecoveryScheme::kRollForwardDet;

  // --- 2. a Poisson transient-fault process ---------------------------
  fault::FaultConfig fault_config;
  fault_config.rate = 0.01;  // ~one fault per 100 time units
  sim::Rng fault_rng(2024);
  auto timeline =
      fault::generate_timeline(fault_config, fault_rng, 50000.0);
  auto timeline_conv = timeline;  // identical history for the baseline

  // --- 3. run both engines --------------------------------------------
  core::SmtVds smt(options, sim::Rng(1));
  const core::RunReport smt_report = smt.run(timeline);

  core::VdsOptions conv_options = options;
  conv_options.scheme = core::RecoveryScheme::kStopAndRetry;
  core::ConventionalVds conv(conv_options, sim::Rng(1));
  const core::RunReport conv_report = conv.run(timeline_conv);

  std::printf("SMT VDS:          %s\n", smt_report.to_string().c_str());
  std::printf("conventional VDS: %s\n", conv_report.to_string().c_str());

  // --- 4. compare with the analytical model ---------------------------
  const auto params = options.to_model_params(/*p=*/0.5);
  std::printf("\nmeasured speedup: %.3f\n",
              conv_report.total_time / smt_report.total_time);
  std::printf("model G_round (eq 4):        %.3f\n",
              model::gain_round(params));
  std::printf("model mean G_corr (eq 13):   %.3f\n",
              model::mean_gain_corr(params));
  std::printf("model G_max (s -> infinity): %.3f\n",
              model::g_max(params));
  return 0;
}
