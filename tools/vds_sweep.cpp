// vds_sweep -- emits CSV datasets for plotting the paper's figures and
// this repository's extensions. Each dataset goes to stdout; select one
// with --dataset. Intended for piping into gnuplot/pandas:
//
//   vds_sweep --dataset fig4 --threads 8 > fig4.csv
//
// Grid points fan out across a work-stealing pool; every point is a
// pure function of its coordinates and rows are concatenated in
// canonical index order, so the CSV is byte-identical for any
// --threads value.

#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "model/limits.hpp"
#include "model/reliability.hpp"
#include "model/surface.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "scenario/cli.hpp"
#include "scenario/engine_factory.hpp"
#include "smt/metrics.hpp"
#include "smt/workload.hpp"

namespace {

constexpr const char* kUsageHead = R"(usage: vds_sweep --dataset NAME [options]

datasets:
  fig4        G_corr(alpha, beta) surface at p = 0.5, s = 20 (Figure 4)
  fig5        the same at p = 1.0 (Figure 5)
  gmax        G_max(p) and finite-s convergence rows
  schemes     engine speedup vs conventional per scheme and fault rate
  alpha       measured alpha of the SMT core across workloads/widths
  reliability closed-form reliability estimates over the fault rate
  engines     every detection engine over the fault rate, on identical
              fault timelines (E26)
)";

constexpr const char* kUsageTail = R"(
exit codes: 0 success; 2 usage/parse error; 3 runtime failure.
)";

struct SweepFlags {
  std::string dataset;
  std::string engine;
  std::uint64_t samples = 11;
  unsigned threads = 0;
};

const vds::scenario::Field<SweepFlags> kSweepFlags[] = {
    {"--dataset", "NAME", "the dataset to emit (see above)",
     &SweepFlags::dataset},
    {"--samples", "N", "grid samples per axis for fig4/fig5",
     &SweepFlags::samples},
    {"--engine", "KIND",
     "restrict the engines dataset to one engine\nkind (default: all)",
     &SweepFlags::engine},
    {"--threads", "N",
     "worker threads (0 = hardware); output is\nbyte-identical for every "
     "value",
     &SweepFlags::threads},
};

void emit_fig(double p, std::size_t samples, vds::runtime::ThreadPool& pool) {
  const vds::model::GainSurface surface(
      vds::model::Axis{0.5, 1.0, samples},
      vds::model::Axis{0.0, 1.0, samples}, p, 20, &pool);
  surface.write_csv(std::cout);
}

void emit_gmax(vds::runtime::ThreadPool& pool) {
  std::printf("p,alpha,beta,g_max,mean_gain_corr_s20\n");
  // 11 p-values x 11 alphas, row index = pi * 11 + ai.
  const std::string body = vds::runtime::render_rows(
      pool, 11 * 11, [](std::size_t i) {
        const double p = 0.1 * static_cast<double>(i / 11);
        const double alpha = 0.5 + 0.05 * static_cast<double>(i % 11);
        const auto params = vds::model::Params::with_beta(alpha, 0.1, 20, p);
        char buf[128];
        std::snprintf(buf, sizeof buf, "%.2f,%.2f,0.10,%.6f,%.6f\n", p,
                      alpha, vds::model::g_max(params),
                      vds::model::mean_gain_corr(params));
        return std::string(buf);
      });
  std::fputs(body.c_str(), stdout);
}

void emit_schemes(vds::runtime::ThreadPool& pool) {
  std::printf("scheme,rate,conv_time,smt_time,speedup,detections,"
              "rollbacks,rf_rounds\n");
  constexpr vds::core::RecoveryScheme kSchemes[] = {
      vds::core::RecoveryScheme::kRollback,
      vds::core::RecoveryScheme::kStopAndRetry,
      vds::core::RecoveryScheme::kRollForwardDet,
      vds::core::RecoveryScheme::kRollForwardProb,
      vds::core::RecoveryScheme::kRollForwardPredict,
  };
  constexpr double kRates[] = {0.002, 0.01, 0.02, 0.05};
  // Each (scheme, rate) point runs two full engine simulations from
  // fixed seeds -- the expensive rows this sweep parallelizes.
  const std::string body = vds::runtime::render_rows(
      pool, 5 * 4, [&](std::size_t i) {
        const auto scheme = kSchemes[i / 4];
        const double rate = kRates[i % 4];
        // Both engines of the point come from one shared scenario:
        // alpha = 0.65, beta = 0.1, s = 20 are the scenario defaults.
        vds::scenario::Scenario point;
        point.scheme = scheme;
        point.predictor = "two_bit";
        point.rounds = 10000;
        point.rate = rate;
        point.bias = 0.8;

        vds::sim::Rng rng_a(7);
        auto timeline_a =
            vds::scenario::make_timeline(point, rng_a, 400000.0);
        const auto smt = vds::scenario::make_engine(
            point, vds::sim::Rng(8), vds::sim::Rng(8));
        const auto smt_report = smt->run(timeline_a);

        vds::scenario::Scenario conv_point = point;
        conv_point.engine = vds::scenario::EngineKind::kConv;
        conv_point.scheme = vds::core::RecoveryScheme::kStopAndRetry;
        vds::sim::Rng rng_b(7);
        auto timeline_b =
            vds::scenario::make_timeline(conv_point, rng_b, 400000.0);
        const auto conv = vds::scenario::make_engine(
            conv_point, vds::sim::Rng(8), vds::sim::Rng(8));
        const auto conv_report = conv->run(timeline_b);

        const auto name = vds::core::to_string(scheme);
        char buf[192];
        std::snprintf(buf, sizeof buf,
                      "%.*s,%.3f,%.2f,%.2f,%.4f,%llu,%llu,%llu\n",
                      static_cast<int>(name.size()), name.data(), rate,
                      conv_report.total_time, smt_report.total_time,
                      conv_report.total_time / smt_report.total_time,
                      static_cast<unsigned long long>(smt_report.detections),
                      static_cast<unsigned long long>(smt_report.rollbacks),
                      static_cast<unsigned long long>(
                          smt_report.roll_forward_rounds_gained));
        return std::string(buf);
      });
  std::fputs(body.c_str(), stdout);
}

void emit_alpha(vds::runtime::ThreadPool& pool) {
  std::printf("workload,issue_width,alpha,ipc_alone,ipc_together\n");
  // Trace generation stays serial: the workloads share one RNG and
  // must consume it in the sequential order. The core simulations
  // (the expensive part) then fan out, reading the traces const.
  vds::sim::Rng rng(42);
  const std::pair<const char*, vds::smt::WorkloadConfig> workloads[] = {
      {"compute", vds::smt::compute_bound_workload(20000)},
      {"memory", vds::smt::memory_bound_workload(20000)},
      {"branchy", vds::smt::branchy_workload(20000)},
      {"serial", vds::smt::serial_chain_workload(20000)},
      {"balanced", vds::smt::balanced_workload(20000)},
  };
  struct TracePair {
    const char* name;
    vds::smt::InstrTrace a;
    vds::smt::InstrTrace b;
  };
  std::vector<TracePair> traces;
  for (const auto& [name, workload] : workloads) {
    TracePair pair;
    pair.name = name;
    pair.a = vds::smt::generate_trace(workload, rng);
    pair.b = vds::smt::generate_trace(workload, rng);
    traces.push_back(std::move(pair));
  }
  static constexpr std::uint32_t kWidths[] = {2u, 4u, 8u};
  const std::string body = vds::runtime::render_rows(
      pool, traces.size() * 3, [&traces](std::size_t i) {
        const TracePair& pair = traces[i / 3];
        const std::uint32_t width = kWidths[i % 3];
        vds::smt::CoreConfig config;
        config.issue_width = width;
        config.max_issue_per_thread = width;
        const auto m = vds::smt::measure_alpha(
            config, vds::smt::FetchPolicy::kIcount, pair.a, pair.b);
        char buf[128];
        std::snprintf(buf, sizeof buf, "%s,%u,%.4f,%.4f,%.4f\n", pair.name,
                      width, m.alpha, m.ipc_a_alone, m.ipc_together);
        return std::string(buf);
      });
  std::fputs(body.c_str(), stdout);
}

void emit_engines(vds::runtime::ThreadPool& pool,
                  const std::vector<vds::scenario::EngineKind>& kinds) {
  std::printf("engine,rate,total_time,throughput,completed,failed_safe,"
              "silent_corruption,detections,rollbacks,comparisons\n");
  constexpr double kRates[] = {0.002, 0.01, 0.02, 0.05};
  // Every engine at one rate sees the *same* fault timeline: the
  // timeline is a pure function of (fault config, seed), and only the
  // engine differs between rows — the apples-to-apples comparison of
  // the engine handbook.
  const std::string body = vds::runtime::render_rows(
      pool, kinds.size() * 4, [&](std::size_t i) {
        const auto kind = kinds[i / 4];
        const double rate = kRates[i % 4];
        vds::scenario::Scenario point;
        point.engine = kind;
        point.predictor = "two_bit";
        point.rounds = 10000;
        point.rate = rate;
        point.crash_weight = 0.1;
        point.permanent_weight = 0.05;
        point.bias = 0.7;

        vds::sim::Rng rng(7);
        auto timeline = vds::scenario::make_timeline(point, rng, 400000.0);
        const auto engine = vds::scenario::make_engine(
            point, vds::sim::Rng(8), vds::sim::Rng(8));
        const auto report = engine->run(timeline);

        const auto name = vds::scenario::to_string(kind);
        char buf[192];
        std::snprintf(
            buf, sizeof buf, "%.*s,%.3f,%.2f,%.4f,%d,%d,%d,%llu,%llu,%llu\n",
            static_cast<int>(name.size()), name.data(), rate,
            report.total_time, report.throughput(), report.completed ? 1 : 0,
            report.failed_safe ? 1 : 0, report.silent_corruption ? 1 : 0,
            static_cast<unsigned long long>(report.detections),
            static_cast<unsigned long long>(report.rollbacks),
            static_cast<unsigned long long>(report.comparisons));
        return std::string(buf);
      });
  std::fputs(body.c_str(), stdout);
}

void emit_reliability(vds::runtime::ThreadPool& pool) {
  std::printf("scheme,rate,p,expected_detections,p_recovery_failure,"
              "expected_rollbacks,p_job_silent,expected_total_time\n");
  constexpr std::pair<const char*, vds::model::Scheme> kSchemes[] = {
      {"det", vds::model::Scheme::kDeterministic},
      {"prob", vds::model::Scheme::kProbabilistic},
      {"predict", vds::model::Scheme::kPrediction},
  };
  constexpr double kRates[] = {0.001, 0.005, 0.01, 0.02, 0.05};
  constexpr double kPs[] = {0.5, 0.9};
  // Row index = (scheme * 5 + rate) * 2 + p.
  const std::string body = vds::runtime::render_rows(
      pool, 3 * 5 * 2, [&](std::size_t i) {
        const auto& [name, scheme] = kSchemes[i / 10];
        const double rate = kRates[(i % 10) / 2];
        const double p = kPs[i % 2];
        const auto params =
            vds::model::Params::with_beta(0.65, 0.1, 20, p);
        const auto est = vds::model::estimate_reliability(params, scheme,
                                                          rate, 10000);
        char buf[192];
        std::snprintf(buf, sizeof buf, "%s,%.3f,%.1f,%.3f,%.6f,%.3f,%.6f,%.1f\n",
                      name, rate, p, est.expected_detections,
                      est.p_recovery_failure, est.expected_rollbacks,
                      est.p_job_silent, est.expected_total_time);
        return std::string(buf);
      });
  std::fputs(body.c_str(), stdout);
}

int run_sweep(int argc, char** argv) {
  SweepFlags flags;
  vds::scenario::Observability observability;
  vds::scenario::CommandLine cli(kUsageHead, kUsageTail);
  cli.add("sweep", kSweepFlags, flags)
      .add("observability", vds::scenario::observability_fields(),
           observability);
  if (!cli.parse(argc, argv)) return 0;
  const std::string& dataset = flags.dataset;

  // Validate before arming anything so the error is pure usage: the
  // canonical bad_value shape names both the flag and the value.
  static const char* const kDatasets[] = {"fig4",  "fig5",        "gmax",
                                          "schemes", "alpha",
                                          "reliability", "engines"};
  bool known = false;
  for (const char* name : kDatasets) known = known || dataset == name;
  if (!known) {
    vds::scenario::bad_value(
        "--dataset", dataset,
        "fig4, fig5, gmax, schemes, alpha, reliability or engines");
  }
  std::vector<vds::scenario::EngineKind> engine_kinds(
      std::begin(vds::scenario::kAllEngineKinds),
      std::end(vds::scenario::kAllEngineKinds));
  if (!flags.engine.empty()) {
    try {
      engine_kinds = {vds::scenario::parse_engine_kind(flags.engine)};
    } catch (const std::invalid_argument&) {
      vds::scenario::bad_value("--engine", flags.engine,
                               vds::scenario::engine_kind_list());
    }
  }

  observability.arm();
  vds::runtime::ThreadPool pool(flags.threads);
  if (dataset == "fig4") {
    emit_fig(0.5, flags.samples, pool);
  } else if (dataset == "fig5") {
    emit_fig(1.0, flags.samples, pool);
  } else if (dataset == "gmax") {
    emit_gmax(pool);
  } else if (dataset == "schemes") {
    emit_schemes(pool);
  } else if (dataset == "alpha") {
    emit_alpha(pool);
  } else if (dataset == "reliability") {
    emit_reliability(pool);
  } else if (dataset == "engines") {
    emit_engines(pool, engine_kinds);
  }
  observability.write();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_sweep(argc, argv);
  } catch (const vds::scenario::CliError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 3;
  }
}
