// Performance micro-benchmarks (google-benchmark) of the simulation
// substrates themselves: protocol-engine round rate, SMT-core
// simulation speed, and state digesting. These guard
// against regressions that would make the experiment harnesses slow.

#include <benchmark/benchmark.h>

#include <vector>

#include "checkpoint/state.hpp"
#include "core/smt_engine.hpp"
#include "sim/rng.hpp"
#include "smt/core.hpp"
#include "smt/workload.hpp"

namespace {

void BM_StateAdvance(benchmark::State& state) {
  vds::checkpoint::VersionState version(7, 64);
  std::uint64_t round = 0;
  for (auto _ : state) {
    version.advance_round(++round);
    benchmark::DoNotOptimize(version.digest());
  }
}
BENCHMARK(BM_StateAdvance);

void BM_SmtVdsFaultFreeRounds(benchmark::State& state) {
  vds::core::VdsOptions options;
  options.job_rounds = static_cast<std::uint64_t>(state.range(0));
  options.scheme = vds::core::RecoveryScheme::kRollForwardDet;
  for (auto _ : state) {
    vds::core::SmtVds vds(options, vds::sim::Rng(1));
    vds::fault::FaultTimeline timeline{std::vector<vds::fault::Fault>{}};
    const auto report = vds.run(timeline);
    benchmark::DoNotOptimize(report.total_time);
  }
  state.SetItemsProcessed(state.range(0) * state.iterations());
}
BENCHMARK(BM_SmtVdsFaultFreeRounds)->Arg(1000)->Arg(10000);

void BM_SmtVdsUnderFaults(benchmark::State& state) {
  vds::core::VdsOptions options;
  options.job_rounds = 2000;
  options.scheme = vds::core::RecoveryScheme::kRollForwardProb;
  vds::fault::FaultConfig config;
  config.rate = 0.02;
  for (auto _ : state) {
    vds::sim::Rng rng(3);
    auto timeline = vds::fault::generate_timeline(config, rng, 10000.0);
    vds::core::SmtVds vds(options, vds::sim::Rng(4));
    const auto report = vds.run(timeline);
    benchmark::DoNotOptimize(report.detections);
  }
}
BENCHMARK(BM_SmtVdsUnderFaults);

void BM_SmtCoreCyclesPerSecond(benchmark::State& state) {
  vds::sim::Rng rng(5);
  const auto trace = vds::smt::generate_trace(
      vds::smt::balanced_workload(
          static_cast<std::uint64_t>(state.range(0))),
      rng);
  vds::smt::CoreConfig config;
  for (auto _ : state) {
    vds::smt::Core core(config);
    const auto result = core.run(trace, trace);
    benchmark::DoNotOptimize(result.cycles);
  }
  state.SetItemsProcessed(2 * state.range(0) * state.iterations());
}
BENCHMARK(BM_SmtCoreCyclesPerSecond)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
