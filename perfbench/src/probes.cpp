#include "probes.hpp"

#include <cstdio>
#include <vector>

#include "checkpoint/state.hpp"
#include "checkpoint/store.hpp"
#include "runtime/journal.hpp"
#include "runtime/mc_campaign.hpp"
#include "runtime/metrics.hpp"
#include "scenario/report_json.hpp"
#include "serve/protocol.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace vds;

namespace {

/// Forces `value` to be materialized, so the timed call is not elided.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Median over `batches` of the mean host cost in ns of body(i) for
/// i in [0, n).
template <typename Body>
double per_call_ns(std::size_t n, int batches, Body&& body) {
  std::vector<double> costs;
  for (int b = 0; b < batches; ++b) {
    const std::int64_t t0 = trace::now_ns();
    for (std::size_t i = 0; i < n; ++i) body(i);
    costs.push_back(static_cast<double>(trace::now_ns() - t0) /
                    static_cast<double>(n));
  }
  return median(costs);
}

/// The pool's own deterministic counter, read over one small grid
/// campaign with the library's metrics registry switched on.
double pool_tasks_per_cell(std::uint64_t seed) {
  auto& registry = runtime::metrics::registry();
  registry.reset();
  registry.set_enabled(true);
  const CampaignInput input = grid_input(seed, 100);
  (void)runtime::run_mc_campaign(input.config(),
                                 scenario::make_mc_runner(input.scenario));
  const std::uint64_t tasks =
      registry
          .counter("pool.tasks_submitted",
                   runtime::metrics::Determinism::kDeterministic)
          .total();
  registry.set_enabled(false);
  registry.reset();
  return static_cast<double>(tasks) /
         static_cast<double>(input.config().cells());
}

}  // namespace

UnitCosts measure_unit_costs(std::uint64_t seed, const std::string& workdir) {
  UnitCosts costs;
  constexpr std::size_t kWords = 16;  // core::VdsOptions::state_words
  constexpr int kBatches = 7;

  checkpoint::VersionState state(seed, kWords);
  costs.advance_ns = per_call_ns(200000, kBatches, [&](std::size_t i) {
    state.advance_round(i);
    keep(state);
  });
  const checkpoint::VersionState twin = state;
  costs.equals_ns = per_call_ns(200000, kBatches, [&](std::size_t) {
    const bool same = state.equals(twin);
    keep(same);
  });
  costs.digest_ns = per_call_ns(200000, kBatches, [&](std::size_t) {
    const std::uint64_t digest = state.digest();
    keep(digest);
  });
  checkpoint::CheckpointStore store;  // CRC only, keeps the last two
  costs.save_ns = per_call_ns(100000, kBatches, [&](std::size_t i) {
    const double latency = store.save(i, state, static_cast<double>(i));
    keep(latency);
  });
  costs.latest_ns = per_call_ns(100000, kBatches, [&](std::size_t) {
    const auto latest = store.latest();
    keep(latest);
  });

  {
    const std::string path = workdir + "/probe.journal";
    std::remove(path.c_str());
    runtime::Journal journal(path, 0x5eed, runtime::JournalFormat::kV3Binary);
    runtime::JournalRecord record;
    record.total_time = 84.5;
    record.rounds_committed = 60;
    costs.journal_append_us = per_call_ns(2000, 5, [&](std::size_t i) {
                                record.index = i;
                                journal.append(record);
                              }) / 1e3;
    std::remove(path.c_str());
  }

  // serve_mix lines of a client the workload never runs.
  constexpr std::size_t kLines = 64;
  std::vector<std::string> lines;
  for (std::uint64_t k = 0; k < kLines; ++k) lines.push_back(serve_request(seed, 9, k));
  costs.parse_us = per_call_ns(kLines * 10, kBatches, [&](std::size_t i) {
                     const serve::ServeRequest request =
                         serve::parse_request(lines[i % kLines]);
                     keep(request);
                   }) / 1e3;

  struct Formatted {
    serve::ServeRequest request;
    runtime::McConfig config;
    runtime::McSummary summary;
    scenario::RunOutcome outcome;
  };
  std::vector<Formatted> inputs;
  for (const std::string& line : lines) {
    Formatted f;
    f.request = serve::parse_request(line);
    if (f.request.type == serve::RequestType::kCampaign) {
      f.config = scenario::to_mc_config(f.request.campaign, f.request.scenario);
      f.config.threads = 1;
      f.summary = runtime::run_mc_campaign(
          f.config, scenario::make_mc_runner(f.request.scenario));
    } else {
      f.outcome = scenario::run_scenario_once(f.request.scenario);
    }
    inputs.push_back(std::move(f));
  }
  costs.format_us = per_call_ns(kLines * 10, kBatches, [&](std::size_t i) {
                      const Formatted& f = inputs[i % kLines];
                      const std::string line =
                          f.request.type == serve::RequestType::kCampaign
                              ? serve::format_campaign_response(
                                    f.request.id, f.config, f.summary, 0.25, 1.5)
                              : serve::format_run_response(
                                    f.request.id, f.request.scenario,
                                    f.outcome.faults_scheduled, f.outcome.report,
                                    0.25, 1.5);
                      keep(line);
                    }) / 1e3;

  costs.pool_tasks_per_cell = pool_tasks_per_cell(seed);
  return costs;
}

}  // namespace perfbench
