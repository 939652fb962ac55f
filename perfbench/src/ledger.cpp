// The traced run (--trace 1): every workload once more with spans at
// the benchmark's own call boundaries, plus the unit-cost probes, folded
// into the per-layer metrics. End-to-end numbers never come from here.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "probes.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace vds;

namespace {

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double metric_value(const WorkloadRun& run, const std::string& name) {
  for (const Metric& metric : run.metrics) {
    if (metric.name == name) return metric.value;
  }
  return 0.0;
}

/// Mean self time per span name, and the self-time table on stderr.
std::map<std::string, double> mean_self_us(const std::vector<trace::Span>& spans) {
  const std::vector<std::int64_t> self = trace::self_times(spans);
  std::map<std::string, std::pair<double, std::uint64_t>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& [total_ns, count] = by_name[spans[i].name];
    total_ns += static_cast<double>(self[i]);
    ++count;
  }
  std::map<std::string, double> mean;
  std::fprintf(stderr, "perfbench: self time by span\n  %-22s %10s %14s %12s\n",
               "span", "count", "self total ms", "self mean us");
  for (const auto& [name, entry] : by_name) {
    mean[name] = entry.first / static_cast<double>(entry.second) / 1e3;
    std::fprintf(stderr, "  %-22s %10llu %14.3f %12.3f\n", name.c_str(),
                 static_cast<unsigned long long>(entry.second), entry.first / 1e6,
                 mean[name]);
  }
  return mean;
}

}  // namespace

Outcome run_ledger(const std::string& workload, const RunContext& ctx,
                   const std::string& trace_path, std::vector<Metric>& metrics) {
  Outcome total;
  const auto merge = [&total](const Outcome& outcome) {
    total.correct = total.correct && outcome.correct;
    total.attempted += outcome.attempted;
    total.failed += outcome.failed;
  };
  // One timed unit per campaign workload; serve_mix gets a fifth of the
  // budget (and enough requests for an exact p99).
  const auto budget_for = [&ctx](const std::string& name) {
    return name == "serve_mix" ? Budget{ctx.budget.seconds / 5, 1000, true}
                               : Budget{0.0, 1, true};
  };

  // Tracing overhead: the selected workload untraced and traced in
  // alternating pairs (so slow drift of the host cancels), taking the
  // median change of cells_per_s. Each pair also checks traced-runner
  // fidelity: both sides must match the same reference digests.
  std::vector<double> overhead;
  std::vector<double> untraced_rate;
  std::vector<double> traced_rate;
  for (int pair = 0; pair < 3; ++pair) {
    RunContext side = ctx;
    side.tallies = nullptr;
    side.budget = budget_for(workload);
    side.budget.seconds /= 2;
    side.budget.warmup = pair == 0;
    side.traced = false;
    const WorkloadRun plain = run_workload(workload, side);
    side.traced = true;
    side.budget.warmup = false;
    trace::reset();
    const WorkloadRun traced = run_workload(workload, side);
    merge(plain.outcome);
    merge(traced.outcome);
    if (plain.reference_digest != traced.reference_digest ||
        plain.reference_digests != traced.reference_digests) {
      total.fail(0, "traced and untraced reference digests differ");
    }
    untraced_rate.push_back(metric_value(plain, "cells_per_s"));
    traced_rate.push_back(metric_value(traced, "cells_per_s"));
    overhead.push_back(ratio(untraced_rate.back() - traced_rate.back(),
                             untraced_rate.back()) * 100.0);
  }
  std::fprintf(stderr,
               "perfbench: %s cells_per_s untraced %.1f, traced %.1f (medians "
               "of 3 alternating pairs)\n",
               workload.c_str(), median(untraced_rate), median(traced_rate));

  // Then every workload traced, for the per-layer metrics.
  EngineTallies grid_tallies;
  EngineTallies sparse_tallies;
  std::map<std::string, WorkloadRun> runs;
  trace::reset();
  for (const char* name : kWorkloads) {
    RunContext traced = ctx;
    traced.traced = true;
    traced.budget = budget_for(name);
    traced.tallies = std::string(name) == "grid"          ? &grid_tallies
                     : std::string(name) == "long_sparse" ? &sparse_tallies
                                                          : nullptr;
    runs[name] = run_workload(name, traced);
    merge(runs[name].outcome);
  }
  const std::vector<trace::Span> spans = trace::collect();
  std::filesystem::create_directories(
      std::filesystem::path(trace_path).parent_path());
  {
    std::ofstream out(trace_path);
    trace::write_chrome(out, spans);
    if (!out) total.fail(0, "cannot write " + trace_path);
  }
  std::fprintf(stderr, "perfbench: %zu spans written to %s\n", spans.size(),
               trace_path.c_str());
  const std::map<std::string, double> self_us = mean_self_us(spans);

  for (const Metric& metric : runs[workload].metrics) {
    std::fprintf(stderr, "perfbench: traced %s = %.6g %s\n", metric.name.c_str(),
                 metric.value, metric.unit.c_str());
  }

  const UnitCosts costs = measure_unit_costs(ctx.seed, ctx.workdir);
  const auto add = [&metrics](std::string name, double value, const char* unit) {
    metrics.push_back({std::move(name), value, unit});
  };

  // scenario + runtime, from the traced grid campaign.
  {
    const WorkloadRun& grid = runs["grid"];
    const EngineTally& tally = grid_tallies[0];
    const CampaignRun empty;
    const CampaignRun& c = grid.campaigns.empty() ? empty : grid.campaigns.front();
    const double cells = static_cast<double>(tally.cells.load());
    const double slot_ns = (c.enqueue_s + c.wait_s) * 1e9 * c.workers;
    const double cell_ns = static_cast<double>(tally.cell_ns.load());
    add("scenario.make_engine_us", ratio(static_cast<double>(tally.make_ns.load()), cells) / 1e3, "us");
    add("scenario.runner_self_us", self_us.count("cell") ? self_us.at("cell") : 0.0, "us");
    add("mc.construct_ms", c.construct_s * 1e3, "ms");
    add("mc.enqueue_ms", c.enqueue_s * 1e3, "ms");
    add("mc.wait_ms", c.wait_s * 1e3, "ms");
    add("mc.reduce_ms", c.reduce_s * 1e3, "ms");
    add("runtime.overhead_us_per_cell", ratio(slot_ns - cell_ns, cells) / 1e3, "us");
    add("runtime.busy_frac", ratio(cell_ns, slot_ns), "fraction");
    add("pool.tasks_per_cell", costs.pool_tasks_per_cell, "count");
    add("journal.bytes_per_cell", ratio(static_cast<double>(grid.journal_bytes), cells), "B");
    add("journal.append_us", costs.journal_append_us, "us");
  }

  // engines, from the traced long_sparse pass.
  for (std::size_t k = 0; k < sparse_tallies.size(); ++k) {
    const EngineTally& t = sparse_tallies[k];
    const std::string prefix =
        "engine." + std::string(scenario::to_string(scenario::kAllEngineKinds[k])) + ".";
    const double cells = static_cast<double>(t.cells.load());
    add(prefix + "run_us", ratio(static_cast<double>(t.run_ns.load()), cells) / 1e3, "us");
    add(prefix + "ns_per_round",
        ratio(static_cast<double>(t.run_ns.load()), static_cast<double>(t.rounds.load())), "ns");
    add(prefix + "rounds_per_cell", ratio(static_cast<double>(t.rounds.load()), cells), "count");
    add(prefix + "comparisons_per_cell",
        ratio(static_cast<double>(t.comparisons.load()), cells), "count");
    add(prefix + "checkpoints_per_cell",
        ratio(static_cast<double>(t.checkpoints.load()), cells), "count");
    add(prefix + "rollbacks_per_cell", ratio(static_cast<double>(t.rollbacks.load()), cells), "count");
  }

  add("checkpoint.advance_ns", costs.advance_ns, "ns");
  add("checkpoint.equals_ns", costs.equals_ns, "ns");
  add("checkpoint.digest_ns", costs.digest_ns, "ns");
  add("checkpoint.save_ns", costs.save_ns, "ns");
  add("checkpoint.latest_ns", costs.latest_ns, "ns");

  // serve, from the traced serve_mix window.
  {
    const WorkloadRun& serve = runs["serve_mix"];
    std::vector<double> queue, service;
    double overhead_us = 0.0;
    for (std::size_t i = 0; i < serve.serve.size(); ++i) {
      const ServeSample& sample = serve.serve[i];
      if (!sample.ok || !sample.timed) continue;
      queue.push_back(sample.queue_ms);
      service.push_back(sample.service_ms);
      overhead_us += (sample.service_ms - serve.serve_check.compute_ms[i]) * 1e3 /
                     static_cast<double>(serve.serve_check.cells[i]);
    }
    if (queue.empty()) {
      total.fail(0, "traced serve_mix window completed no request");
      queue.push_back(0.0);
      service.push_back(0.0);
    }
    add("serve.parse_us", costs.parse_us, "us");
    add("serve.format_us", costs.format_us, "us");
    add("serve.samples", static_cast<double>(queue.size()), "count");
    add("serve.queue_ms.p50", quantile(queue, 0.50), "ms");
    add("serve.queue_ms.p99", quantile(queue, 0.99), "ms");
    add("serve.service_ms.p50", quantile(service, 0.50), "ms");
    add("serve.service_ms.p99", quantile(service, 0.99), "ms");
    add("serve.batch_size",
        ratio(static_cast<double>(serve.serve_completed),
              static_cast<double>(serve.serve_batches)),
        "count");
    add("serve.overhead_us_per_cell", ratio(overhead_us, static_cast<double>(queue.size())), "us");
  }

  // fabric, from the traced fabric_grid campaign.
  {
    const WorkloadRun& fab = runs["fabric_grid"];
    const FabricRun empty;
    const FabricRun& f = fab.fabric.empty() ? empty : fab.fabric.front();
    const double cells = static_cast<double>(grid_input(ctx.seed).config().cells());
    add("fabric.handshake_ms", (f.setup_s - f.listen_s) * 1e3, "ms");
    add("fabric.leases", static_cast<double>(f.grants), "count");
    add("fabric.finalize_ms", f.finalize_s * 1e3, "ms");
    add("fabric.bytes_per_cell", static_cast<double>(f.workdir_bytes) / cells, "B");
    add("fabric.overhead_us_per_cell", (f.wall_s - fab.reference_s) / cells * 1e6, "us");
  }

  add("trace.overhead_pct", median(overhead), "%");
  add("trace.spans", static_cast<double>(spans.size()), "count");
  return total;
}

}  // namespace perfbench
