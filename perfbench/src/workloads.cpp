#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include <sys/resource.h>
#include <sys/stat.h>

#include "fabric/coordinator.hpp"
#include "fabric/worker.hpp"
#include "runtime/journal.hpp"
#include "runtime/thread_pool.hpp"
#include "scenario/engine_factory.hpp"
#include "scenario/report_json.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace vds;

namespace {

double seconds_of(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

std::int64_t file_size(const std::string& path) {
  struct stat st = {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::int64_t>(st.st_size)
                                        : -1;
}

void record_span(const char* name, const char* cat, std::int64_t start,
                 std::int64_t end, std::uint64_t parent,
                 std::uint64_t arg = trace::kNoArg, std::uint64_t id = 0) {
  trace::Span span;
  span.name = name;
  span.cat = cat;
  span.start_ns = start;
  span.end_ns = end;
  span.id = id != 0 ? id : trace::next_id();
  span.parent = parent;
  span.arg = arg;
  trace::record(span);
}

/// Repeats `unit` per the budget: one untimed warm-up unit, then timed
/// units until both the minimum count and the time budget are met.
template <typename Body>
void run_budget(const Budget& budget, Body&& unit) {
  if (budget.warmup) unit(/*timed=*/false);
  const std::int64_t start = trace::now_ns();
  std::uint64_t units = 0;
  while (units < budget.min_units ||
         seconds_of(trace::now_ns() - start) < budget.seconds) {
    unit(/*timed=*/true);
    ++units;
  }
}

/// The median and the tail: p99 when at least ten samples lie beyond
/// it, else the highest quantile that has ten beyond (never below the
/// median). A campaign run measures tens of campaigns, so its tail is
/// the median; serve_mix measures thousands of requests.
void add_latency_metrics(std::vector<Metric>& metrics,
                         const std::vector<double>& latency_ms) {
  const double tail_q = tail_quantile(latency_ms.size());
  metrics.push_back({"latency_p50_ms", quantile(latency_ms, 0.50), "ms"});
  metrics.push_back({"latency_p99_ms", quantile(latency_ms, tail_q), "ms"});
  std::fprintf(stderr,
               "perfbench: latency over %zu samples, tail at q=%.4f "
               "(%zu samples beyond)\n",
               latency_ms.size(), tail_q, samples_beyond(latency_ms, tail_q));
}

/// One timed unit of a campaign workload: a campaign or a six-engine pass.
struct Unit {
  double cells = 0.0;
  double rounds = 0.0;
  double run_s = 0.0;    ///< set-up excluded
  double total_s = 0.0;  ///< request to result
  double setup_s = 0.0;
};

/// End-to-end metrics of a campaign workload. Throughput is over the
/// whole timed window (sum of work / sum of time), so the fabric
/// coordinator's 100 ms accept-loop step averages out instead of
/// flipping a median between two modes; latency and set-up are
/// per-unit medians.
std::vector<Metric> campaign_metrics(const std::vector<Unit>& units, double rss) {
  double cells = 0.0, rounds = 0.0, run_s = 0.0, total_s = 0.0;
  std::vector<double> latency, setup;
  for (const Unit& unit : units) {
    cells += unit.cells;
    rounds += unit.rounds;
    run_s += unit.run_s;
    total_s += unit.total_s;
    latency.push_back(unit.total_s * 1e3);
    setup.push_back(unit.setup_s);
  }
  if (units.empty()) return {};
  std::vector<Metric> metrics = {
      {"cells_per_s", cells / run_s, "cells/s"},
      {"rounds_per_s", rounds / run_s, "rounds/s"},
      {"req_per_s", static_cast<double>(units.size()) / total_s, "req/s"}};
  add_latency_metrics(metrics, latency);
  metrics.push_back({"setup_s", median(setup), "s"});
  metrics.push_back({"peak_rss_mb", rss, "MiB"});
  return metrics;
}

/// "c<client>-<k>", the id of a serve_mix request.
std::string request_id(unsigned client, std::uint64_t k) {
  std::string id = "c";
  id.append(std::to_string(client)).append("-").append(std::to_string(k));
  return id;
}

std::string hex16(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace

void Outcome::fail(std::uint64_t n, const std::string& why) {
  correct = false;
  failed += n;
  std::fprintf(stderr, "perfbench: FAILED (%llu): %s\n",
               static_cast<unsigned long long>(n), why.c_str());
}

// --- inputs -----------------------------------------------------------------

unsigned grid_workers() {
  return std::clamp(runtime::ThreadPool::hardware_threads(), 1u, 4u);
}

CampaignInput grid_input(std::uint64_t seed, std::uint64_t replicas) {
  CampaignInput input;
  input.scenario.rounds = 60;  // vds_mc's default job length
  input.spec.replicas = replicas;
  input.spec.seed = derive_seed(seed, 1);
  input.spec.threads = grid_workers();
  return input;
}

std::vector<CampaignInput> long_sparse_inputs(std::uint64_t seed,
                                              std::uint64_t replicas,
                                              std::uint64_t job_rounds) {
  std::vector<CampaignInput> inputs;
  for (const scenario::EngineKind kind : scenario::kAllEngineKinds) {
    CampaignInput input;
    input.scenario.engine = kind;
    input.scenario.rounds = job_rounds;
    input.spec.replicas = replicas;
    input.spec.kinds = {fault::FaultKind::kTransient, fault::FaultKind::kCrash};
    input.spec.seed = derive_seed(seed, 2);
    input.spec.threads = 1;
    inputs.push_back(std::move(input));
  }
  return inputs;
}

std::string serve_request(std::uint64_t seed, unsigned client,
                          std::uint64_t k) {
  const std::uint64_t request_seed = derive_seed(seed, 3 + client, k);
  std::string line = R"({"schema": "vds.serve_request.v1", "id": ")";
  line += request_id(client, k);
  if (k % 4 == 3) {
    line += R"(", "type": "run", "scenario": {"schema": "vds.scenario.v1", )"
            R"("rounds": 500, "seed": )" +
            std::to_string(request_seed) + "}}";
  } else {
    line += R"(", "type": "campaign", "scenario": {"schema": )"
            R"("vds.scenario.v1", "scheme": "det"}, "campaign": )"
            R"({"replicas": 2, "rounds": [1, 5, 10], "kinds": ["transient"], )"
            R"("seed": )" +
            std::to_string(request_seed) + "}}";
  }
  return line;
}

// --- traced runner -------------------------------------------------------------

runtime::McRunner traced_runner(scenario::Scenario scenario,
                                std::uint64_t parent, EngineTally* tally) {
  return [scenario = std::move(scenario), parent, tally](
             const runtime::McCell& cell, fault::FaultTimeline& timeline,
             sim::Rng& rng) {
    const std::uint64_t id = trace::next_id();
    const std::int64_t t0 = trace::now_ns();
    // The draw order of scenario::make_mc_runner: engine stream first,
    // predictor stream second. The digest check relies on it.
    auto engine_rng = rng.split(1);
    auto predictor_rng = rng.split(2);
    const std::int64_t t1 = trace::now_ns();
    auto engine = scenario::make_engine(scenario, engine_rng, predictor_rng);
    const std::int64_t t2 = trace::now_ns();
    core::RunReport report = engine->run(timeline);
    const std::int64_t t3 = trace::now_ns();
    engine.reset();
    record_span("scenario.make_engine", "scenario", t1, t2, id, cell.index);
    record_span("engine.run", "engine", t2, t3, id, cell.index);
    if (tally != nullptr) {
      tally->cells.fetch_add(1, std::memory_order_relaxed);
      tally->rounds.fetch_add(report.rounds_committed, std::memory_order_relaxed);
      tally->comparisons.fetch_add(report.comparisons, std::memory_order_relaxed);
      tally->checkpoints.fetch_add(report.checkpoints, std::memory_order_relaxed);
      tally->rollbacks.fetch_add(report.rollbacks, std::memory_order_relaxed);
      tally->make_ns.fetch_add(static_cast<std::uint64_t>(t2 - t1),
                               std::memory_order_relaxed);
      tally->run_ns.fetch_add(static_cast<std::uint64_t>(t3 - t2),
                              std::memory_order_relaxed);
    }
    const std::int64_t t4 = trace::now_ns();
    if (tally != nullptr) {
      tally->cell_ns.fetch_add(static_cast<std::uint64_t>(t4 - t0),
                               std::memory_order_relaxed);
    }
    record_span("cell", "runtime", t0, t4, parent, cell.index, id);
    return report;
  };
}

// --- timed units -----------------------------------------------------------------

CampaignRun run_campaign(const CampaignInput& input,
                         const runtime::McConfig& config, bool traced,
                         EngineTally* tally, std::uint64_t parent,
                         std::uint64_t arg) {
  CampaignRun run;
  run.span = traced ? trace::next_id() : 0;
  const runtime::McRunner runner =
      traced ? traced_runner(input.scenario, run.span, tally)
             : scenario::make_mc_runner(input.scenario);
  const std::int64_t t0 = trace::now_ns();
  runtime::McExecution exec(config, runner);
  runtime::ThreadPool pool(config.threads);
  const std::int64_t t1 = trace::now_ns();
  exec.enqueue(pool);
  const std::int64_t t2 = trace::now_ns();
  pool.wait_idle();
  const std::int64_t t3 = trace::now_ns();
  run.summary = exec.reduce(pool);
  const std::int64_t t4 = trace::now_ns();
  run.workers = pool.size();
  run.construct_s = seconds_of(t1 - t0);
  run.enqueue_s = seconds_of(t2 - t1);
  run.wait_s = seconds_of(t3 - t2);
  run.reduce_s = seconds_of(t4 - t3);
  if (traced) {
    record_span("mc.construct", "runtime", t0, t1, run.span);
    record_span("mc.enqueue", "runtime", t1, t2, run.span);
    record_span("mc.wait", "runtime", t2, t3, run.span);
    record_span("mc.reduce", "runtime", t3, t4, run.span);
    record_span("campaign", "runtime", t0, t4, parent, arg, run.span);
  }
  return run;
}

std::uint64_t rounds_of(const runtime::McSummary& summary) {
  return static_cast<std::uint64_t>(std::llround(summary.rounds_committed.sum()));
}

bool FabricRun::clean_workers() const {
  return std::all_of(worker_rc.begin(), worker_rc.end(),
                     [](int rc) { return rc == 0; });
}

bool FabricRun::clean() const { return coordinator_rc == 0 && clean_workers(); }

FabricRun run_fabric(const CampaignInput& input, const std::string& dir,
                     unsigned workers, bool traced, std::uint64_t parent,
                     std::uint64_t arg) {
  namespace fs = std::filesystem;
  fs::remove_all(dir);
  fs::create_directories(dir);

  fabric::CoordinatorOptions coord;
  coord.scenario = input.scenario;
  coord.campaign = input.spec;
  coord.socket_path = dir + "/f.sock";
  coord.workdir = dir + "/work";
  coord.json_out = dir + "/summary.json";
  coord.quiet = true;
  const std::string log = coord.workdir + "/assignment.journal";

  FabricRun run;
  run.worker_rc.assign(workers, -1);
  const std::uint64_t span = traced ? trace::next_id() : 0;
  std::atomic<bool> coordinator_done{false};
  std::int64_t coordinator_end = 0;
  const std::int64_t t0 = trace::now_ns();
  std::thread coordinator([&] {
    try {
      run.coordinator_rc = fabric::run_coordinator(coord);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "perfbench: coordinator threw: %s\n", error.what());
      run.coordinator_rc = -2;
    }
    coordinator_end = trace::now_ns();
    coordinator_done.store(true);
  });

  // Listening once the socket exists; the assignment log (header only)
  // was created just before.
  while (!coordinator_done.load() && file_size(coord.socket_path) < 0 &&
         trace::now_ns() - t0 < 60'000'000'000) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  const std::int64_t t_listen = trace::now_ns();
  const std::int64_t header_bytes = file_size(log);

  std::vector<std::int64_t> worker_start(workers, 0);
  std::vector<std::int64_t> worker_end(workers, 0);
  std::vector<std::thread> threads;
  std::atomic<unsigned> workers_running{0};
  if (!coordinator_done.load() && file_size(coord.socket_path) >= 0) {
    workers_running.store(workers);
    for (unsigned w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        fabric::WorkerOptions options;
        options.socket_path = coord.socket_path;
        options.name = "bench-w" + std::to_string(w);
        options.threads = 1;
        options.quiet = true;
        worker_start[w] = trace::now_ns();
        try {
          run.worker_rc[w] = fabric::run_worker(options);
        } catch (const std::exception& error) {
          std::fprintf(stderr, "perfbench: worker threw: %s\n", error.what());
          run.worker_rc[w] = -2;
        }
        worker_end[w] = trace::now_ns();
        workers_running.fetch_sub(1);
      });
    }
  }
  // Set-up ends when the first lease grant reaches the write-ahead log.
  std::int64_t t_grant = 0;
  while (!coordinator_done.load() && workers_running.load() > 0) {
    if (file_size(log) > header_bytes) {
      t_grant = trace::now_ns();
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  for (std::thread& thread : threads) thread.join();
  // With every worker gone for a bad reason the campaign cannot finish:
  // drain the coordinator instead of waiting on it forever.
  const bool stranded = threads.empty() || !run.clean_workers();
  if (stranded && !coordinator_done.load()) runtime::request_drain();
  coordinator.join();
  if (stranded) runtime::clear_drain_request();
  if (t_grant == 0) t_grant = coordinator_end;

  const std::int64_t last_worker =
      worker_end.empty() ? coordinator_end
                         : *std::max_element(worker_end.begin(), worker_end.end());
  run.listen_s = seconds_of(t_listen - t0);
  run.setup_s = seconds_of(t_grant - t0);
  run.wall_s = seconds_of(coordinator_end - t0);
  run.finalize_s = seconds_of(coordinator_end - last_worker);

  {
    std::ifstream in(coord.json_out);
    std::stringstream text;
    text << in.rdbuf();
    const std::string body = text.str();
    const std::size_t at = body.find("\"digest\": \"");
    if (at != std::string::npos) {
      run.digest = std::strtoull(body.c_str() + at + 11, nullptr, 16);
      run.have_digest = true;
    }
  }
  try {
    for (const auto& event : runtime::Journal::inspect(log).leases) {
      if (event.lease_event == runtime::LeaseEvent::kGranted) ++run.grants;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: assignment log: %s\n", error.what());
  }
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(coord.workdir, ec)) {
    if (entry.is_regular_file()) run.workdir_bytes += entry.file_size();
  }

  if (traced) {
    record_span("fabric.listen", "fabric", t0, t_listen, span);
    record_span("fabric.handshake", "fabric", t_listen, t_grant, span);
    for (unsigned w = 0; w < threads.size(); ++w) {
      record_span("fabric.worker", "fabric", worker_start[w], worker_end[w],
                  span, w);
    }
    record_span("fabric.finalize", "fabric", last_worker, coordinator_end, span);
    record_span("fabric.campaign", "fabric", t0, coordinator_end, parent, arg,
                span);
  }
  fs::remove_all(dir, ec);
  return run;
}

// --- serve ----------------------------------------------------------------------

namespace {

/// One closed-loop client's connection: response lines queue here with
/// the time they reached the sink.
class ClientSink : public serve::ResponseSink {
 public:
  void write_line(const std::string& line) override {
    const std::int64_t at = trace::now_ns();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      lines_.emplace_back(line, at);
      ++total_;
    }
    cv_.notify_one();
  }

  /// Next line, or false after `timeout` with none.
  bool next(std::string& line, std::int64_t& at,
            std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!cv_.wait_for(lock, timeout, [this] { return !lines_.empty(); })) {
      return false;
    }
    line = std::move(lines_.front().first);
    at = lines_.front().second;
    lines_.pop_front();
    return true;
  }

  [[nodiscard]] std::uint64_t total() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return total_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::pair<std::string, std::int64_t>> lines_;  // guarded
  std::uint64_t total_ = 0;                                 // guarded
};

/// The raw token of a numeric field of a compact response line.
std::string number_token(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t from = at + needle.size();
  const std::size_t to = line.find_first_of(",}", from);
  return to == std::string::npos ? std::string() : line.substr(from, to - from);
}

}  // namespace

ClientRun serve_client(serve::Server& server, std::uint64_t seed,
                       unsigned client, std::uint64_t first,
                       std::uint64_t count, std::int64_t stop_ns, bool timed,
                       std::uint64_t parent) {
  ClientRun run;
  auto sink = std::make_shared<ClientSink>();
  for (std::uint64_t k = first;; ++k) {
    if (count > 0 ? k - first >= count : trace::now_ns() >= stop_ns) break;
    const std::string line = serve_request(seed, client, k);
    const std::string id_field = "\"id\": \"" + request_id(client, k) + "\"";
    ServeSample sample;
    sample.client = client;
    sample.k = k;
    sample.timed = timed;
    const std::int64_t t0 = trace::now_ns();
    server.submit(line, sink);
    ++run.submitted;
    std::string response;
    std::int64_t at = 0;
    if (!sink->next(response, at, std::chrono::seconds(60))) {
      run.stalled = true;
      run.samples.push_back(sample);
      break;
    }
    sample.latency_ms = static_cast<double>(at - t0) / 1e6;
    sample.ok = response.rfind(R"({"schema": "vds.serve_response.v1")", 0) == 0 &&
                response.find(id_field) != std::string::npos &&
                response.find(R"("status": "ok")") != std::string::npos;
    if (sample.ok) {
      sample.queue_ms = std::strtod(number_token(response, "queue_ms").c_str(), nullptr);
      sample.service_ms =
          std::strtod(number_token(response, "service_ms").c_str(), nullptr);
      sample.line_hash = runtime::fnv1a(response);
    } else {
      std::fprintf(stderr, "perfbench: serve %s -> %.200s\n", id_field.c_str(),
                   response.c_str());
    }
    if (parent != 0) {
      record_span("serve.request", "serve", t0, at, parent,
                  (static_cast<std::uint64_t>(client) << 32) | k);
    }
    run.samples.push_back(std::move(sample));
  }
  run.lines = sink->total();
  return run;
}

ServeReference serve_reference(std::uint64_t seed, unsigned client,
                               std::uint64_t k, double queue_ms,
                               double service_ms, runtime::ThreadPool& pool) {
  ServeReference ref;
  const serve::ServeRequest request =
      serve::parse_request(serve_request(seed, client, k));
  const std::int64_t t0 = trace::now_ns();
  if (request.type == serve::RequestType::kCampaign) {
    const runtime::McConfig config =
        scenario::to_mc_config(request.campaign, request.scenario);
    runtime::McExecution exec(config, scenario::make_mc_runner(request.scenario));
    exec.enqueue(pool);
    pool.wait_idle();
    const runtime::McSummary summary = exec.reduce(pool);
    ref.compute_ms = static_cast<double>(trace::now_ns() - t0) / 1e6;
    ref.line = serve::format_campaign_response(request.id, config, summary,
                                               queue_ms, service_ms);
    ref.rounds = rounds_of(summary);
    ref.cells = config.cells();
  } else {
    const scenario::RunOutcome outcome = scenario::run_scenario_once(request.scenario);
    ref.compute_ms = static_cast<double>(trace::now_ns() - t0) / 1e6;
    ref.line = serve::format_run_response(request.id, request.scenario,
                                          outcome.faults_scheduled, outcome.report,
                                          queue_ms, service_ms);
    ref.rounds = outcome.report.rounds_committed;
    ref.cells = 1;
  }
  return ref;
}

ServeCheck check_serve(std::uint64_t seed,
                       const std::vector<ServeSample>& samples) {
  ServeCheck check;
  check.compute_ms.assign(samples.size(), 0.0);
  check.cells.assign(samples.size(), 0);
  check.rounds.assign(samples.size(), 0);
  check.bad.assign(samples.size(), 0);
  std::atomic<std::size_t> next{0};

  const auto verify = [&] {
    // A warm private pool, like the server's: compute_ms then excludes
    // pool start-up and measures what the server adds on top.
    runtime::ThreadPool pool(1);
    for (std::size_t i = next.fetch_add(1); i < samples.size();
         i = next.fetch_add(1)) {
      const ServeSample& sample = samples[i];
      if (!sample.ok) continue;
      try {
        // Formatted with the response's own timing tokens, so the bytes
        // must match exactly.
        const ServeReference ref = serve_reference(
            seed, sample.client, sample.k, sample.queue_ms, sample.service_ms, pool);
        check.compute_ms[i] = ref.compute_ms;
        check.cells[i] = ref.cells;
        check.rounds[i] = ref.rounds;
        check.bad[i] = runtime::fnv1a(ref.line) != sample.line_hash;
      } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench: serve reference: %s\n", error.what());
        check.bad[i] = 1;
      }
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < grid_workers(); ++t) threads.emplace_back(verify);
  for (std::thread& thread : threads) thread.join();

  check.mismatched = static_cast<std::uint64_t>(
      std::count(check.bad.begin(), check.bad.end(), 1));
  return check;
}

// --- workload runs ----------------------------------------------------------------

double peak_rss_mib() {
  struct rusage usage = {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

WorkloadRun run_grid(const RunContext& ctx, std::uint64_t replicas) {
  WorkloadRun out;
  CampaignInput input = grid_input(ctx.seed, replicas);
  input.spec.journal = ctx.workdir + "/grid.journal";
  const runtime::McConfig config = input.config();
  EngineTally* tally = ctx.tallies ? &(*ctx.tallies)[0] : nullptr;

  std::uint64_t index = 0;
  run_budget(ctx.budget, [&](bool timed) {
    try {
      CampaignRun run = run_campaign(input, config, timed && ctx.traced,
                                     tally, 0, index++);
      out.journal_bytes = static_cast<std::uint64_t>(
          std::max<std::int64_t>(file_size(config.journal_path), 0));
      if (timed) out.campaigns.push_back(std::move(run));
    } catch (const std::exception& error) {
      out.outcome.fail(config.cells(), std::string("grid campaign: ") + error.what());
    }
  });
  const double rss = peak_rss_mib();
  std::remove(config.journal_path.c_str());

  runtime::McConfig reference = config;
  reference.journal_path.clear();
  out.reference_digest =
      runtime::run_mc_campaign(reference, scenario::make_mc_runner(input.scenario))
          .digest();

  std::vector<Unit> units;
  for (const CampaignRun& run : out.campaigns) {
    out.outcome.attempted += config.cells();
    if (run.summary.digest() != out.reference_digest) {
      out.outcome.fail(config.cells(), "grid digest " + hex16(run.summary.digest()) +
                                           " != reference " + hex16(out.reference_digest));
      continue;
    }
    if (run.summary.cells_quarantined > 0) {
      out.outcome.fail(run.summary.cells_quarantined, "grid cells quarantined");
    }
    units.push_back({static_cast<double>(config.cells()),
                     static_cast<double>(rounds_of(run.summary)), run.run_s(),
                     run.total_s(), run.construct_s});
  }
  out.metrics = campaign_metrics(units, rss);
  return out;
}

WorkloadRun run_long_sparse(const RunContext& ctx, std::uint64_t replicas,
                            std::uint64_t job_rounds) {
  WorkloadRun out;
  const std::vector<CampaignInput> inputs =
      long_sparse_inputs(ctx.seed, replicas, job_rounds);
  std::vector<runtime::McConfig> configs;
  for (const CampaignInput& input : inputs) configs.push_back(input.config());

  std::vector<Unit> passes;
  std::uint64_t pass_index = 0;
  run_budget(ctx.budget, [&](bool timed) {
    const bool traced = timed && ctx.traced;
    const std::uint64_t span = traced ? trace::next_id() : 0;
    const std::int64_t t0 = trace::now_ns();
    Unit pass;
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      EngineTally* tally = ctx.tallies ? &(*ctx.tallies)[k] : nullptr;
      try {
        CampaignRun run = run_campaign(inputs[k], configs[k], traced, tally, span, k);
        pass.setup_s += run.construct_s;
        pass.run_s += run.run_s();
        pass.total_s += run.total_s();
        pass.cells += static_cast<double>(configs[k].cells());
        pass.rounds += static_cast<double>(rounds_of(run.summary));
        if (timed) out.campaigns.push_back(std::move(run));
      } catch (const std::exception& error) {
        out.outcome.fail(configs[k].cells(),
                         std::string("long_sparse campaign: ") + error.what());
      }
    }
    if (traced) {
      record_span("long_sparse.pass", "workload", t0, trace::now_ns(), 0,
                  pass_index, span);
    }
    ++pass_index;
    if (timed) passes.push_back(pass);
  });
  const double rss = peak_rss_mib();

  for (std::size_t k = 0; k < inputs.size(); ++k) {
    runtime::McConfig reference = configs[k];
    reference.threads = grid_workers();  // the digest is thread-count independent
    out.reference_digests.push_back(
        runtime::run_mc_campaign(reference,
                                 scenario::make_mc_runner(inputs[k].scenario))
            .digest());
  }
  for (std::size_t i = 0; i < out.campaigns.size(); ++i) {
    const std::size_t k = i % inputs.size();
    const CampaignRun& run = out.campaigns[i];
    out.outcome.attempted += configs[k].cells();
    if (run.summary.digest() != out.reference_digests[k]) {
      out.outcome.fail(configs[k].cells(),
                       std::string("long_sparse ") +
                           std::string(scenario::to_string(inputs[k].scenario.engine)) +
                           " digest " + hex16(run.summary.digest()) + " != reference " +
                           hex16(out.reference_digests[k]));
    } else if (run.summary.cells_quarantined > 0) {
      out.outcome.fail(run.summary.cells_quarantined, "long_sparse cells quarantined");
    }
  }
  out.metrics = campaign_metrics(passes, rss);
  return out;
}

WorkloadRun run_serve_mix(const RunContext& ctx) {
  WorkloadRun out;
  constexpr unsigned kClients = 2;
  constexpr unsigned kSessions = 20;
  constexpr std::uint64_t kWarmupPerClient = 20;
  serve::ServerOptions options;
  options.threads = 2;  // queue_limit and batch_max keep their defaults

  // Set-up: Server construction (pool + dispatcher), several times.
  std::vector<double> setup;
  for (int i = 0; i < 30; ++i) {
    const std::int64_t t0 = trace::now_ns();
    auto server = std::make_unique<serve::Server>(options);
    setup.push_back(seconds_of(trace::now_ns() - t0));
  }

  // The timed window is cut into short sessions, each on a fresh Server
  // with its own threads. Outside load on a shared host comes in bursts
  // of seconds that inflate a p99 up to tenfold; figures taken per
  // session and summarised on the quiet side (below) leave such a burst
  // out unless it covers most of the run.
  struct Session {
    std::size_t first = 0, last = 0;  ///< its samples in out.serve
    std::int64_t start = 0, end = 0;  ///< its timed window
  };
  std::vector<Session> sessions;
  double rss = 0.0;
  std::vector<ClientRun> runs(kClients);
  std::vector<std::uint64_t> next_k(kClients, 0);
  const double session_s = ctx.budget.seconds / kSessions;
  // At least min_units requests in total, then until the budget is spent.
  const std::uint64_t minimum =
      (ctx.budget.min_units + kClients * kSessions - 1) / (kClients * kSessions);
  for (unsigned s = 0; s < kSessions; ++s) {
    const std::int64_t t0 = trace::now_ns();
    serve::Server server(options);
    setup.push_back(seconds_of(trace::now_ns() - t0));

    std::vector<ServeSample> samples;
    const auto phase = [&](std::uint64_t count, std::int64_t stop_ns, bool timed,
                           std::uint64_t parent) {
      std::vector<std::thread> clients;
      std::vector<ClientRun> phase_runs(kClients);
      for (unsigned c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          phase_runs[c] = serve_client(server, ctx.seed, c, next_k[c], count,
                                       stop_ns, timed, parent);
        });
      }
      for (std::thread& client : clients) client.join();
      for (unsigned c = 0; c < kClients; ++c) {
        samples.insert(samples.end(), phase_runs[c].samples.begin(),
                       phase_runs[c].samples.end());
        next_k[c] += phase_runs[c].submitted;
        runs[c].submitted += phase_runs[c].submitted;
        runs[c].lines += phase_runs[c].lines;
        runs[c].stalled = runs[c].stalled || phase_runs[c].stalled;
      }
    };
    if (ctx.budget.warmup) phase(kWarmupPerClient, 0, false, 0);

    Session session;
    const std::uint64_t span = ctx.traced ? trace::next_id() : 0;
    session.start = trace::now_ns();
    const auto stop = session.start + static_cast<std::int64_t>(session_s * 1e9);
    phase(minimum, 0, true, span);
    if (trace::now_ns() < stop) phase(0, stop, true, span);
    session.end = trace::now_ns();
    if (ctx.traced) {
      record_span("serve.window", "workload", session.start, session.end, 0, s, span);
    }
    server.finish();
    const serve::StatsSnapshot stats = server.stats_snapshot();
    out.serve_completed += stats.completed;
    out.serve_batches += stats.batches;

    session.first = out.serve.size();
    out.serve.insert(out.serve.end(), samples.begin(), samples.end());
    session.last = out.serve.size();
    sessions.push_back(session);
    // After one session the server has run the whole mix, and the
    // benchmark's own record of responses is still small; later it grows
    // with the request count and would swamp the server's footprint.
    if (s == 0) rss = peak_rss_mib();
  }

  for (unsigned c = 0; c < kClients; ++c) {
    if (runs[c].stalled) out.outcome.fail(1, "serve client stalled: no response in 60 s");
    if (runs[c].lines != runs[c].submitted) {
      out.outcome.fail(1, "serve client " + std::to_string(c) + ": " +
                              std::to_string(runs[c].submitted) + " submits but " +
                              std::to_string(runs[c].lines) + " response lines");
    }
  }
  const ServeCheck& check = out.serve_check = check_serve(ctx.seed, out.serve);
  out.outcome.attempted = out.serve.size();
  std::uint64_t not_ok = 0;
  for (const ServeSample& sample : out.serve) not_ok += sample.ok ? 0 : 1;
  if (not_ok > 0) out.outcome.fail(not_ok, "serve error or foreign response lines");
  if (check.mismatched > 0) {
    out.outcome.fail(check.mismatched,
                     "serve responses differ from the one-shot reference");
  }

  // Each figure is first taken per session over its good timed
  // responses (percentiles exact within the session), then summarised
  // over the sessions by the quartile on the quiet side: the lower
  // quartile of latencies, the upper quartile of rates.
  std::vector<double> req_rate, cells_rate, rounds_rate, p50, tail;
  std::size_t timed = 0;
  std::size_t fewest_beyond = SIZE_MAX;
  for (const Session& session : sessions) {
    std::vector<double> latency;
    double cells = 0.0;
    double rounds = 0.0;
    for (std::size_t i = session.first; i < session.last; ++i) {
      if (!out.serve[i].ok || !out.serve[i].timed || check.bad[i]) continue;
      latency.push_back(out.serve[i].latency_ms);
      cells += static_cast<double>(check.cells[i]);
      rounds += static_cast<double>(check.rounds[i]);
    }
    if (latency.empty()) continue;
    const double seconds = seconds_of(session.end - session.start);
    const double tail_q = tail_quantile(latency.size());
    req_rate.push_back(static_cast<double>(latency.size()) / seconds);
    cells_rate.push_back(cells / seconds);
    rounds_rate.push_back(rounds / seconds);
    p50.push_back(quantile(latency, 0.5));
    tail.push_back(quantile(latency, tail_q));
    timed += latency.size();
    fewest_beyond = std::min(fewest_beyond, samples_beyond(latency, tail_q));
  }
  if (p50.empty()) return out;
  std::fprintf(stderr,
               "perfbench: %zu timed responses over %zu sessions, tail p99 "
               "(or the highest quantile with ten beyond); at least %zu "
               "samples beyond it in every session\n",
               timed, p50.size(), fewest_beyond);
  const auto quiet_rate = [](const std::vector<double>& v) { return quantile(v, 0.75); };
  const auto quiet_latency = [](const std::vector<double>& v) { return quantile(v, 0.25); };
  out.metrics = {{"cells_per_s", quiet_rate(cells_rate), "cells/s"},
                 {"rounds_per_s", quiet_rate(rounds_rate), "rounds/s"},
                 {"req_per_s", quiet_rate(req_rate), "req/s"},
                 {"latency_p50_ms", quiet_latency(p50), "ms"},
                 {"latency_p99_ms", quiet_latency(tail), "ms"},
                 {"setup_s", median(setup), "s"}};
  out.metrics.push_back({"peak_rss_mb", rss, "MiB"});
  return out;
}

WorkloadRun run_fabric_grid(const RunContext& ctx, std::uint64_t replicas) {
  constexpr unsigned kWorkers = 2;
  WorkloadRun out;
  const CampaignInput input = grid_input(ctx.seed, replicas);
  const std::uint64_t cells = input.config().cells();
  const std::string dir = ctx.workdir + "/fabric";

  std::uint64_t index = 0;
  run_budget(ctx.budget, [&](bool timed) {
    FabricRun run = run_fabric(input, dir, kWorkers, timed && ctx.traced, 0, index++);
    if (timed) out.fabric.push_back(std::move(run));
  });
  const double rss = peak_rss_mib();

  // Reference: one single-process McExecution at the same worker count.
  runtime::McConfig reference = input.config();
  reference.threads = kWorkers;
  const CampaignRun base = run_campaign(input, reference, false, nullptr, 0, 0);
  out.reference_digest = base.summary.digest();
  out.reference_s = base.total_s();
  const std::uint64_t rounds = rounds_of(base.summary);

  std::vector<Unit> units;
  for (const FabricRun& run : out.fabric) {
    out.outcome.attempted += cells;
    if (!run.clean()) {
      out.outcome.fail(cells, "fabric coordinator/worker exited nonzero");
      continue;
    }
    if (!run.have_digest || run.digest != out.reference_digest) {
      out.outcome.fail(cells, "fabric digest " + hex16(run.digest) + " != reference " +
                                  hex16(out.reference_digest));
      continue;
    }
    units.push_back({static_cast<double>(cells), static_cast<double>(rounds),
                     run.run_s(), run.wall_s, run.setup_s});
  }
  out.metrics = campaign_metrics(units, rss);
  return out;
}

// --- pinned digests ---------------------------------------------------------------

namespace {

/// The seed of the pinned checks, and the digests at it, recorded when
/// the benchmark was added. A change that alters any simulated result
/// must re-record them and say so.
constexpr std::uint64_t kPinSeed = 1;
constexpr std::uint64_t kPinnedGrid = 0xc7ee596c4ed9923a;
constexpr std::uint64_t kPinnedLongSparse[6] = {  // registry order
    0x86c612e097bd66fa, 0xce655efd880c5c06, 0x6367e30023b1ac31,
    0x1777de7247e48615, 0x3f282f83cba62406, 0xa7d4303749d415c8};
constexpr std::uint64_t kPinnedServe = 0x6e7ce4a6f908d493;  ///< first 4 requests of client 0
constexpr std::uint64_t kPinnedServeRequests = 4;

}  // namespace

void check_pinned(const std::string& name, Outcome& outcome) {
  const auto compare = [&](const std::string& what, std::uint64_t got,
                           std::uint64_t pinned, std::uint64_t ops) {
    if (got == pinned) return;
    outcome.fail(ops, what + " at seed " + std::to_string(kPinSeed) + ": digest " +
                          hex16(got) + " != pinned " + hex16(pinned));
  };
  try {
    if (name == "grid" || name == "fabric_grid") {
      const CampaignInput input = grid_input(kPinSeed);
      compare("grid campaign",
              runtime::run_mc_campaign(input.config(),
                                       scenario::make_mc_runner(input.scenario))
                  .digest(),
              kPinnedGrid, input.config().cells());
    } else if (name == "long_sparse") {
      const std::vector<CampaignInput> inputs = long_sparse_inputs(kPinSeed);
      for (std::size_t k = 0; k < inputs.size(); ++k) {
        runtime::McConfig config = inputs[k].config();
        config.threads = grid_workers();
        compare("long_sparse " + std::string(scenario::to_string(inputs[k].scenario.engine)),
                runtime::run_mc_campaign(config, scenario::make_mc_runner(inputs[k].scenario))
                    .digest(),
                kPinnedLongSparse[k], config.cells());
      }
    } else if (name == "serve_mix") {
      runtime::ThreadPool pool(1);
      std::string lines;
      for (std::uint64_t k = 0; k < kPinnedServeRequests; ++k) {
        lines += serve_reference(kPinSeed, 0, k, 0.0, 0.0, pool).line;
      }
      compare("serve responses", runtime::fnv1a(lines), kPinnedServe,
              kPinnedServeRequests);
    }
  } catch (const std::exception& error) {
    outcome.fail(1, std::string("pinned check: ") + error.what());
  }
}

WorkloadRun run_workload(const std::string& name, const RunContext& ctx) {
  if (name == "grid") return run_grid(ctx);
  if (name == "long_sparse") return run_long_sparse(ctx);
  if (name == "serve_mix") return run_serve_mix(ctx);
  if (name == "fabric_grid") return run_fabric_grid(ctx);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
