// E25 (extension) -- worker scaling of the distributed campaign
// fabric. One 20000-cell campaign is run through an in-process
// coordinator with 1, 2, 4 and 8 single-threaded workers attached
// over a Unix socket; wall time, cells per second and the merged
// digest are reported, against a plain single-process McExecution
// baseline. The digest must be identical everywhere — sharding is
// just more scheduling on top of per-cell RNG substreams — so the
// table measures only the cost/benefit of distribution: handshake
// and heartbeat traffic, per-lease journal writes (one write(2) per
// dispatch block), and the final merge + full-range resume. CI greps
// for MISMATCH/REGRESSION.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/worker.hpp"
#include "runtime/mc_campaign.hpp"
#include "runtime/thread_pool.hpp"
#include "scenario/campaign_spec.hpp"
#include "scenario/scenario.hpp"

using namespace vds;
using Clock = std::chrono::steady_clock;

namespace {

scenario::CampaignSpec campaign() {
  scenario::CampaignSpec spec;
  spec.replicas = 2000;
  spec.grid = {1, 5, 10, 15, 20};
  spec.kinds = {fault::FaultKind::kTransient,
                fault::FaultKind::kProcessorCrash};
  spec.seed = 42;
  return spec;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main() {
  bench::banner("E25", "distributed fabric worker scaling (extension)");

  scenario::Scenario scn;  // defaults: smt/det, alpha 0.65
  scn.rounds = 60;         // campaign job length, as vds_mc defaults it
  const scenario::CampaignSpec spec = campaign();
  const std::uint64_t cells =
      spec.replicas * spec.grid.size() * spec.kinds.size();
  std::printf("  campaign: %llu cells (%llu replicas x %zu rounds x "
              "%zu kinds), scheme det\n",
              static_cast<unsigned long long>(cells),
              static_cast<unsigned long long>(spec.replicas),
              spec.grid.size(), spec.kinds.size());

  // Baseline: the same campaign through one McExecution, no fabric.
  runtime::McConfig base_config = scenario::to_mc_config(spec, scn);
  const runtime::McRunner runner = scenario::make_mc_runner(scn);
  std::uint64_t base_digest = 0;
  double base_wall = 0.0;
  {
    const auto start = Clock::now();
    runtime::McExecution exec(base_config, runner);
    runtime::ThreadPool pool(base_config.threads);
    exec.enqueue(pool);
    pool.wait_idle();
    base_digest = exec.reduce(pool).digest();
    base_wall = seconds_since(start);
  }
  std::printf("  single-process baseline: %.3f s, %.0f cells/s, "
              "digest %016llx\n",
              base_wall, static_cast<double>(cells) / base_wall,
              static_cast<unsigned long long>(base_digest));

  const auto tmp = std::filesystem::temp_directory_path() /
                   "vds_bench_fabric_scaling";
  std::filesystem::remove_all(tmp);
  std::filesystem::create_directories(tmp);

  std::printf("\n  %8s %10s %12s %9s  %s\n", "workers", "wall [s]",
              "cells/s", "vs base", "digest");
  bool all_match = true;
  bool all_clean = true;
  for (const int workers : {1, 2, 4, 8}) {
    const std::string tag = std::to_string(workers);
    fabric::CoordinatorOptions coord;
    coord.scenario = scn;
    coord.campaign = spec;
    coord.socket_path = (tmp / ("fab-" + tag + ".sock")).string();
    coord.workdir = (tmp / ("work-" + tag)).string();
    coord.lease_cells = cells / 16;
    coord.json_out = (tmp / ("summary-" + tag + ".json")).string();
    coord.quiet = true;

    const auto start = Clock::now();
    int coordinator_rc = -1;
    std::thread coordinator(
        [&] { coordinator_rc = fabric::run_coordinator(coord); });
    while (!std::filesystem::exists(coord.socket_path) &&
           seconds_since(start) < 10.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::vector<std::thread> pool;
    std::vector<int> worker_rc(static_cast<std::size_t>(workers), -1);
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        fabric::WorkerOptions opt;
        opt.socket_path = coord.socket_path;
        opt.name = "bench-w" + std::to_string(w);
        opt.threads = 1;
        opt.quiet = true;
        worker_rc[static_cast<std::size_t>(w)] = fabric::run_worker(opt);
      });
    }
    coordinator.join();
    for (std::thread& worker : pool) worker.join();
    const double wall = seconds_since(start);

    // The coordinator prints `digest: …` to stdout itself; re-read it
    // from the summary snapshot for the comparison column.
    std::uint64_t digest = 0;
    {
      std::FILE* json = std::fopen(coord.json_out.c_str(), "rb");
      if (json) {
        std::string text(1 << 16, '\0');
        text.resize(std::fread(text.data(), 1, text.size(), json));
        std::fclose(json);
        const auto at = text.find("\"digest\": \"");
        if (at != std::string::npos) {
          digest = std::strtoull(text.c_str() + at + 11, nullptr, 16);
        }
      }
    }
    bool clean = coordinator_rc == 0;
    for (const int rc : worker_rc) clean = clean && rc == 0;
    all_clean = all_clean && clean;
    all_match = all_match && digest == base_digest;
    std::printf("  %8d %10.3f %12.0f %8.2fx  %016llx%s%s\n", workers,
                wall, static_cast<double>(cells) / wall,
                base_wall / wall,
                static_cast<unsigned long long>(digest),
                digest == base_digest ? "" : "  <-- MISMATCH",
                clean ? "" : "  <-- nonzero exit");
  }
  std::filesystem::remove_all(tmp);

  std::printf("\n  fabric digest bit-identical to the single-process "
              "run at every worker count: %s\n",
              all_match ? "yes" : "NO -- REGRESSION");
  std::printf("  coordinator and all workers exited 0 everywhere: %s\n",
              all_clean ? "yes" : "NO -- REGRESSION");
  bench::note("workers are single-threaded; compare against E18 for "
              "in-process thread scaling of the same runtime.");
  return (all_match && all_clean) ? 0 : 1;
}
