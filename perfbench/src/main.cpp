// perfbench: the repository benchmark binary.
//
//   perfbench --workload grid|long_sparse|serve_mix|fabric_grid
//             --seed N --seconds S --trace 0|1
//             [--workdir DIR] [--trace-out FILE]
//
// --trace 0 measures the workload's end-to-end metrics; --trace 1 runs
// the traced per-layer ledger and writes a Chrome trace-event file.
// Human-readable notes go to stderr; the last line on stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "grid|long_sparse|serve_mix|fabric_grid --seed N --seconds S "
               "--trace 0|1 [--workdir DIR] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

void print_result(const perfbench::Outcome& outcome,
                  const std::vector<perfbench::Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += outcome.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(outcome.attempted);
  line += ", \"failed\": " + std::to_string(outcome.failed);
  line += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", value);
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
    std::fprintf(stderr, "  %-36s %16.6g %s\n", metrics[i].name.c_str(), value,
                 metrics[i].unit.c_str());
  }
  line += "}}";
  std::fflush(stdout);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string workdir;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (arg == "--workdir") {
      workdir = value;
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  bool known = false;
  for (const char* name : perfbench::kWorkloads) known = known || workload == name;
  if (!known) usage("unknown or missing --workload");
  if (!(seconds >= 0.0) || (trace != 0 && trace != 1)) usage("bad --seconds or --trace");

  namespace fs = std::filesystem;
  if (workdir.empty()) workdir = ".bench_build/run";
  workdir += "/" + workload + "-" + std::to_string(::getpid());
  if (trace_out.empty()) {
    trace_out = ".bench_build/trace/" + workload + "-seed" + std::to_string(seed) + ".json";
  }

  perfbench::RunContext ctx;
  ctx.seed = seed;
  ctx.workdir = workdir;
  ctx.budget.seconds = seconds;
  ctx.budget.min_units = workload == "serve_mix" ? 1000 : 3;
  int rc = 0;
  try {
    fs::create_directories(workdir);
    perfbench::Outcome outcome;
    std::vector<perfbench::Metric> metrics;
    if (trace == 0) {
      perfbench::WorkloadRun run = perfbench::run_workload(workload, ctx);
      outcome = run.outcome;
      metrics = std::move(run.metrics);
    } else {
      outcome = perfbench::run_ledger(workload, ctx, trace_out, metrics);
    }
    perfbench::check_pinned(workload, outcome);
    if (metrics.empty()) outcome.fail(0, "no metrics measured");
    print_result(outcome, metrics);
    rc = outcome.correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: error: %s\n", error.what());
    rc = 3;
  }
  std::error_code ec;
  fs::remove_all(workdir, ec);
  return rc;
}
