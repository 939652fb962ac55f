#pragma once

// The four benchmark workloads, driven through the library's public API
// from one process. Every input is generated from the workload seed;
// the library receives only the generated configs and request lines.
// Each workload checks its outputs against a reference computed outside
// every timed window.

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/mc_campaign.hpp"
#include "runtime/thread_pool.hpp"
#include "scenario/campaign_spec.hpp"
#include "scenario/scenario.hpp"
#include "serve/protocol.hpp"

namespace vds::serve {
class Server;
}  // namespace vds::serve

namespace perfbench {

inline constexpr const char* kWorkloads[] = {"grid", "long_sparse",
                                             "serve_mix", "fabric_grid"};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome accounting shared by every run: `attempted`/`failed` count
/// cells (campaign workloads) or requests (serve_mix).
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Counts `n` failed operations and logs why on stderr.
  void fail(std::uint64_t n, const std::string& why);
};

/// How long a run measures: at least `min_units` timed units (campaigns,
/// six-engine passes or requests) and until `seconds` have passed.
struct Budget {
  double seconds = 10.0;
  std::uint64_t min_units = 3;
  bool warmup = true;  ///< one untimed unit first
};

// --- inputs -------------------------------------------------------------

/// A campaign as vds_mc would build it from flags.
struct CampaignInput {
  vds::scenario::Scenario scenario;
  vds::scenario::CampaignSpec spec;

  [[nodiscard]] vds::runtime::McConfig config() const {
    return vds::scenario::to_mc_config(spec, scenario);
  }
};

/// Worker count of the grid workload: the hardware, capped at 4.
[[nodiscard]] unsigned grid_workers();

/// The paper's default grid: smt/det, 60-round jobs, all four fault
/// kinds x strike rounds {1,5,10,15,20} x `replicas`.
[[nodiscard]] CampaignInput grid_input(std::uint64_t seed,
                                       std::uint64_t replicas = 2000);

/// One campaign per engine kind (registry order), 10 000-round jobs,
/// transient and crash faults, 1 worker, no journal.
[[nodiscard]] std::vector<CampaignInput> long_sparse_inputs(
    std::uint64_t seed, std::uint64_t replicas = 2,
    std::uint64_t job_rounds = 10000);

/// Request `k` of serve client `client`: every fourth is a 500-round
/// `run`, the rest are 6-cell smt/det campaigns. Seeds are distinct.
[[nodiscard]] std::string serve_request(std::uint64_t seed,
                                        unsigned client, std::uint64_t k);

// --- traced-runner support ----------------------------------------------

/// Work counts and host time of one engine kind, summed over the cells
/// a traced runner executed. Counts come from each returned RunReport.
struct EngineTally {
  std::atomic<std::uint64_t> cells{0};
  std::atomic<std::uint64_t> rounds{0};
  std::atomic<std::uint64_t> comparisons{0};
  std::atomic<std::uint64_t> checkpoints{0};
  std::atomic<std::uint64_t> rollbacks{0};
  std::atomic<std::uint64_t> run_ns{0};
  std::atomic<std::uint64_t> make_ns{0};
  std::atomic<std::uint64_t> cell_ns{0};  ///< whole runner call
};

/// One tally per engine kind, indexed like scenario::kAllEngineKinds.
using EngineTallies = std::array<EngineTally, 6>;

/// A runner with scenario::make_mc_runner's exact draw order (engine
/// stream split(1), then predictor split(2)) that records cell,
/// make_engine and Engine::run spans under `parent` and adds each
/// report to `tally`.
[[nodiscard]] vds::runtime::McRunner traced_runner(
    vds::scenario::Scenario scenario, std::uint64_t parent,
    EngineTally* tally);

// --- timed units ----------------------------------------------------------

/// Host timings of one campaign: construct (pool + McExecution), then
/// enqueue, wait_idle and reduce.
struct CampaignRun {
  double construct_s = 0.0;
  double enqueue_s = 0.0;
  double wait_s = 0.0;
  double reduce_s = 0.0;
  unsigned workers = 1;
  std::uint64_t span = 0;  ///< campaign span id (0 untraced)
  vds::runtime::McSummary summary;

  [[nodiscard]] double run_s() const { return enqueue_s + wait_s + reduce_s; }
  [[nodiscard]] double total_s() const { return construct_s + run_s(); }
};

/// Runs one campaign on a private pool. When `traced`, the runner is
/// traced_runner(`input.scenario`, ..., `tally`) and the phases become
/// spans under a campaign span (child of `parent`, argument `arg`).
[[nodiscard]] CampaignRun run_campaign(const CampaignInput& input,
                                       const vds::runtime::McConfig& config,
                                       bool traced, EngineTally* tally,
                                       std::uint64_t parent,
                                       std::uint64_t arg);

/// Sum of rounds_committed over a summary's cells.
[[nodiscard]] std::uint64_t rounds_of(const vds::runtime::McSummary& summary);

/// One fabric campaign: coordinator plus `workers` single-thread worker
/// threads over a Unix socket in `dir` (created fresh, removed after).
struct FabricRun {
  int coordinator_rc = -1;
  std::vector<int> worker_rc;
  double listen_s = 0.0;     ///< start -> socket listening
  double setup_s = 0.0;      ///< start -> first lease grant logged
  double wall_s = 0.0;       ///< start -> coordinator returned
  double finalize_s = 0.0;   ///< last worker returned -> coordinator returned
  bool have_digest = false;
  std::uint64_t digest = 0;
  std::uint64_t grants = 0;         ///< lease grants in the assignment log
  std::uint64_t workdir_bytes = 0;  ///< journals + logs left in the workdir

  [[nodiscard]] bool clean_workers() const;  ///< every worker exited 0
  [[nodiscard]] bool clean() const;          ///< and the coordinator too
  [[nodiscard]] double run_s() const { return wall_s - setup_s; }
};

[[nodiscard]] FabricRun run_fabric(const CampaignInput& input,
                                   const std::string& dir, unsigned workers,
                                   bool traced, std::uint64_t parent,
                                   std::uint64_t arg);

/// One closed-loop serve request as the client saw it.
struct ServeSample {
  unsigned client = 0;
  std::uint64_t k = 0;         ///< request number within the client
  bool ok = false;             ///< a vds.serve_response.v1 with our id
  bool timed = false;          ///< inside the timed window
  double latency_ms = 0.0;     ///< submit -> line reached the sink
  double queue_ms = 0.0;       ///< from the response; the reference
  double service_ms = 0.0;     ///< line is formatted with both
  std::uint64_t line_hash = 0; ///< fnv1a of the response line
};

/// One closed-loop client: its samples plus the accounting that every
/// submit got exactly one response line.
struct ClientRun {
  std::vector<ServeSample> samples;
  std::uint64_t submitted = 0;
  std::uint64_t lines = 0;  ///< lines its sink received
  bool stalled = false;     ///< a submit got no line within 60 s
};

/// Sends requests `first`, `first+1`, ... of `client` one at a time,
/// each after the previous response arrived: `count` of them, or (count
/// 0) until the clock passes `stop_ns`. Records a serve.request span per
/// request under `parent` when it is nonzero.
[[nodiscard]] ClientRun serve_client(vds::serve::Server& server,
                                     std::uint64_t seed, unsigned client,
                                     std::uint64_t first, std::uint64_t count,
                                     std::int64_t stop_ns, bool timed,
                                     std::uint64_t parent);

/// Result of checking every serve response against a one-shot reference.
struct ServeCheck {
  std::uint64_t mismatched = 0;
  std::vector<char> bad;             ///< per sample: reference differs
  std::vector<double> compute_ms;    ///< one-shot compute time per sample
  std::vector<std::uint64_t> cells;  ///< per sample (a run is one cell)
  std::vector<std::uint64_t> rounds; ///< rounds committed per sample
};

/// The one-shot response to request `k` of `client`: the request's
/// campaign as one McExecution on `pool`, or run_scenario_once, formatted
/// with the given queue and service times.
struct ServeReference {
  std::string line;
  double compute_ms = 0.0;  ///< host time of the one-shot compute
  std::uint64_t cells = 0;  ///< a run is one cell
  std::uint64_t rounds = 0;
};

[[nodiscard]] ServeReference serve_reference(std::uint64_t seed,
                                             unsigned client, std::uint64_t k,
                                             double queue_ms, double service_ms,
                                             vds::runtime::ThreadPool& pool);

/// Recomputes each sample's response with serve_reference on a private
/// single-worker pool and compares the response bytes.
[[nodiscard]] ServeCheck check_serve(std::uint64_t seed,
                                     const std::vector<ServeSample>& samples);

// --- end-to-end runs --------------------------------------------------------

/// Everything one workload run measured. `metrics` holds the
/// end-to-end metrics; the other fields feed the traced ledger.
struct WorkloadRun {
  Outcome outcome;
  std::vector<Metric> metrics;
  std::vector<CampaignRun> campaigns;  ///< grid, long_sparse (6 per pass)
  std::vector<FabricRun> fabric;
  std::vector<ServeSample> serve;
  ServeCheck serve_check;
  std::uint64_t serve_completed = 0;  ///< summed over serve_mix sessions
  std::uint64_t serve_batches = 0;
  std::uint64_t journal_bytes = 0;  ///< grid: last campaign's journal
  std::uint64_t reference_digest = 0;
  std::vector<std::uint64_t> reference_digests;  ///< long_sparse, per kind
  double reference_s = 0.0;  ///< fabric: single-process McExecution wall
};

struct RunContext {
  std::uint64_t seed = 1;
  Budget budget;
  std::string workdir;        ///< working space for journals and sockets
  bool traced = false;        ///< record spans, use traced runners
  EngineTallies* tallies = nullptr;
};

[[nodiscard]] WorkloadRun run_grid(const RunContext& ctx,
                                   std::uint64_t replicas = 2000);
[[nodiscard]] WorkloadRun run_long_sparse(const RunContext& ctx,
                                          std::uint64_t replicas = 2,
                                          std::uint64_t job_rounds = 10000);
[[nodiscard]] WorkloadRun run_serve_mix(const RunContext& ctx);
[[nodiscard]] WorkloadRun run_fabric_grid(const RunContext& ctx,
                                          std::uint64_t replicas = 2000);

/// Dispatches by workload name; throws std::invalid_argument on others.
[[nodiscard]] WorkloadRun run_workload(const std::string& name,
                                       const RunContext& ctx);

/// Recomputes the workload's outputs at a fixed seed (the grid campaign,
/// the six long_sparse campaigns, or the first serve requests) and
/// compares them with digests pinned in the benchmark. The per-run
/// reference checks compare the program with itself; this catches a
/// change to the simulated results, which a speed-only change must not
/// make. Counts a mismatch against `outcome`.
void check_pinned(const std::string& name, Outcome& outcome);

/// Peak resident set of this process so far, MiB.
[[nodiscard]] double peak_rss_mib();

/// Per-layer metrics of the traced run (--trace 1): every workload is
/// run once more with spans, plus unit-cost probes. Writes the span
/// file to `trace_path`.
[[nodiscard]] Outcome run_ledger(const std::string& workload,
                                 const RunContext& ctx,
                                 const std::string& trace_path,
                                 std::vector<Metric>& metrics);

}  // namespace perfbench
