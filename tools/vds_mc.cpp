// vds_mc -- parallel Monte Carlo fault-injection campaign driver.
//
//   vds_mc --threads 8 --replicas 1000 --grid 1,5,10,15,20
//          --kinds transient --scheme det
//          --journal campaign.journal --json-out summary.json
//
// Fans (fault kind x detection round x replica) cells across a
// work-stealing pool. Every cell draws its fault from a deterministic
// RNG substream, so the merged summary is bitwise identical for every
// thread count. Progress is journaled; kill the run and relaunch with
// --resume to finish without re-executing completed cells.
//
// The engine under test is a scenario::Scenario: any engine kind,
// scheme or predictor the shared config layer knows (load a whole
// spec with --scenario FILE, then override with flags). The command
// line composes the shared engine, campaign and observability field
// tables plus this tool's output flags.

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/chaos.hpp"
#include "runtime/journal.hpp"
#include "runtime/mc_campaign.hpp"
#include "runtime/thread_pool.hpp"
#include "scenario/campaign_spec.hpp"
#include "scenario/cli.hpp"
#include "scenario/engine_factory.hpp"

namespace {

constexpr const char* kUsageHead = R"(usage: vds_mc [options]

Runs a (fault kind x detection round x replica) Monte Carlo campaign.
The campaign schedules its own faults, so the single-run fault-process
flags of vds_cli do not apply.
)";

constexpr const char* kUsageTail = R"(
SIGINT/SIGTERM drain the campaign gracefully: dispatch stops, in-flight
cells are journaled, and the exit code is 130 with a resumable journal.

exit codes: 0 success; 2 usage/parse error; 3 runtime failure;
130 signal drain.
)";

struct OutputOptions {
  std::string json_out;
  bool quiet = false;
  bool progress = false;
};

const vds::scenario::Field<OutputOptions> kOutputFlags[] = {
    {"--json-out", "PATH", "write JSON snapshot ('-' = stdout)",
     &OutputOptions::json_out},
    {"--quiet", "", "suppress the text summary", &OutputOptions::quiet},
    {"--progress", "",
     "stderr heartbeat while running (cells\nresolved, strata stopped, "
     "ETA); never\ntouches stdout",
     &OutputOptions::progress},
};

/// The --progress heartbeat: a sampler thread printing resolved/target
/// cells, early-stopped strata and an ETA to stderr twice a second.
/// Reads only the execution's atomic progress counters — it cannot
/// perturb results, and stdout (text summary, JSON) stays untouched.
class ProgressReporter {
 public:
  ProgressReporter(const vds::runtime::McExecution& exec, bool enabled) {
    if (enabled) thread_ = std::thread([this, &exec] { loop(exec); });
  }

  ~ProgressReporter() {
    if (!thread_.joinable()) return;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

 private:
  void loop(const vds::runtime::McExecution& exec) {
    const auto start = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (cv_.wait_for(lock, std::chrono::milliseconds(500),
                       [this] { return stop_; })) {
        return;
      }
      const auto p = exec.progress();
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      std::fprintf(stderr, "progress: %llu/%llu cells",
                   static_cast<unsigned long long>(p.resolved),
                   static_cast<unsigned long long>(p.target));
      if (p.strata_total > 0) {
        std::fprintf(stderr, ", %llu/%llu strata stopped early",
                     static_cast<unsigned long long>(p.strata_stopped),
                     static_cast<unsigned long long>(p.strata_total));
      }
      if (p.resolved > 0 && p.target > p.resolved) {
        const double eta = elapsed *
                           static_cast<double>(p.target - p.resolved) /
                           static_cast<double>(p.resolved);
        std::fprintf(stderr, ", eta %.1fs", eta);
      }
      std::fputc('\n', stderr);
    }
  }

  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

int run_mc(int argc, char** argv) {
  using vds::scenario::CliError;

  vds::scenario::Scenario scenario;
  scenario.rounds = 60;  // vds_mc's traditional default job length
  vds::scenario::Observability observability;
  vds::scenario::CampaignSpec campaign;
  OutputOptions out;

  vds::scenario::CommandLine cli(kUsageHead, kUsageTail);
  cli.add("engine under test", vds::scenario::scenario_fields(), scenario)
      .add("campaign", vds::scenario::campaign_fields(), campaign)
      .add("observability", vds::scenario::observability_fields(),
           observability)
      .add("output", kOutputFlags, out);
  if (!cli.parse(argc, argv)) return 0;
  scenario.validate();
  if (campaign.max_replicas > 0 && campaign.target_ci == 0.0) {
    throw CliError("--max-replicas requires --target-ci");
  }

  if (campaign.chaos.empty()) {
    if (const char* env = std::getenv("VDS_CHAOS")) campaign.chaos = env;
  }
  // Config and runner come from the shared campaign_spec layer —
  // exactly what vds_serve builds for the same request, which is what
  // makes serve responses digest-match this tool's snapshots.
  const vds::runtime::McConfig config =
      vds::scenario::to_mc_config(campaign, scenario);
  // A typo'd chaos spec is a usage error; validate before the run.
  try {
    (void)vds::runtime::Chaos::parse(config.chaos, config.seed);
  } catch (const std::exception& error) {
    throw CliError(error.what());
  }
  const vds::runtime::McRunner runner =
      vds::scenario::make_mc_runner(scenario);

  const unsigned workers =
      campaign.threads == 0 ? vds::runtime::ThreadPool::hardware_threads()
                            : campaign.threads;
  if (!out.quiet) {
    std::printf("campaign: %zu cells (%zu kinds x %zu rounds x %llu "
                "replicas), %u worker thread%s\n",
                config.cells(), config.kinds.size(), config.rounds.size(),
                static_cast<unsigned long long>(config.replicas), workers,
                workers == 1 ? "" : "s");
    if (config.sampling()) {
      std::printf("sampling: target CI %g, %llu..%llu replicas per "
                  "stratum, batch %llu\n",
                  config.target_ci,
                  static_cast<unsigned long long>(
                      std::min(config.min_replicas, config.replicas)),
                  static_cast<unsigned long long>(config.replicas),
                  static_cast<unsigned long long>(config.batch));
    }
  }

  // From here on SIGINT/SIGTERM drain gracefully: dispatch stops,
  // in-flight cells flush to the journal, and we exit 130 below.
  vds::runtime::install_drain_signal_handlers();

  observability.arm();
  const auto start = std::chrono::steady_clock::now();
  vds::runtime::McSummary summary;
  try {
    vds::runtime::McExecution exec(config, runner);
    vds::runtime::ThreadPool pool(config.threads);
    exec.arm_chaos(pool);
    {
      // Joined (scope exit) before reduce, even when wait_idle throws.
      const ProgressReporter reporter(exec, out.progress);
      exec.enqueue(pool);
      pool.wait_idle();
    }
    summary = exec.reduce(pool);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 3;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start)
          .count();

  if (!out.quiet) {
    std::printf("done in %.2fs: %llu executed, %llu resumed from "
                "journal\n",
                elapsed,
                static_cast<unsigned long long>(summary.cells_executed),
                static_cast<unsigned long long>(summary.cells_resumed));
    if (config.sampling()) {
      std::uint64_t early = 0;
      std::uint64_t run = 0;
      for (const auto& stats : summary.strata) {
        if (stats.early_stopped) ++early;
        run += stats.replicas_run;
      }
      std::printf("sampling: %llu/%zu strata stopped early, %llu "
                  "replicas kept of %zu cell budget\n",
                  static_cast<unsigned long long>(early),
                  summary.strata.size(),
                  static_cast<unsigned long long>(run), config.cells());
    }
    if (summary.cells_retried > 0 || summary.cells_quarantined > 0 ||
        summary.records_corrupt > 0) {
      std::printf("degraded cells: %llu retried, %llu quarantined, "
                  "%llu corrupt journal records skipped\n",
                  static_cast<unsigned long long>(summary.cells_retried),
                  static_cast<unsigned long long>(summary.cells_quarantined),
                  static_cast<unsigned long long>(summary.records_corrupt));
    }
    std::printf("outcomes:\n");
    for (std::size_t k = 0; k < summary.outcomes.by_outcome.size(); ++k) {
      if (summary.outcomes.by_outcome[k] == 0) continue;
      std::printf(
          "  %-14s %10llu\n",
          std::string(vds::core::to_string(
                          static_cast<vds::core::InjectionOutcome>(k)))
              .c_str(),
          static_cast<unsigned long long>(summary.outcomes.by_outcome[k]));
    }
    std::printf("safety: %.4f\n", summary.outcomes.safety());
    if (!summary.detection_latency.empty()) {
      std::printf("detection latency: mean %.4f +- %.4f (n=%zu)\n",
                  summary.detection_latency.mean(),
                  summary.detection_latency.sem(),
                  summary.detection_latency.count());
    }
    if (!summary.recovery_time.empty()) {
      std::printf("recovery time:     mean %.4f +- %.4f (n=%zu)\n",
                  summary.recovery_time.mean(), summary.recovery_time.sem(),
                  summary.recovery_time.count());
    }
    std::printf("mean run time:     %.4f\n", summary.total_time.mean());
    std::printf("digest:            %016llx\n",
                static_cast<unsigned long long>(summary.digest()));
  }

  if (!out.json_out.empty()) {
    if (out.json_out == "-") {
      vds::runtime::write_snapshot(std::cout, config, summary);
    } else {
      std::ofstream file(out.json_out);
      if (!file) {
        throw CliError("cannot write '" + out.json_out + "'");
      }
      vds::runtime::write_snapshot(file, config, summary);
    }
  }
  observability.write();
  if (summary.drained) {
    std::fprintf(stderr,
                 "drained: campaign stopped on signal with %llu cell%s "
                 "unrun; relaunch with --resume to finish\n",
                 static_cast<unsigned long long>(summary.cells_skipped),
                 summary.cells_skipped == 1 ? "" : "s");
    return 130;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_mc(argc, argv);
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
