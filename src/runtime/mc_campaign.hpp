#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/options.hpp"
#include "core/report.hpp"
#include "fault/fault_model.hpp"
#include "fault/injector.hpp"
#include "runtime/journal.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace vds::runtime {

class Chaos;
class Journal;
class JsonWriter;
class ThreadPool;

/// Monte Carlo injection-campaign configuration. The grid is the same
/// (fault kind × detection round) lattice as core::InjectionCampaign;
/// `replicas` runs every cell that many times with an independently
/// randomized fault position, turning the grid into a Monte Carlo
/// estimate of the paper's expectations over fault position (the
/// quantities behind Ḡ_det / Ḡ_corr and the Figure 4/5 surfaces).
struct McConfig {
  std::vector<vds::fault::FaultKind> kinds = {
      vds::fault::FaultKind::kTransient, vds::fault::FaultKind::kCrash,
      vds::fault::FaultKind::kPermanent,
      vds::fault::FaultKind::kProcessorCrash};
  /// Detection-interval rounds at which faults strike, 1-based.
  std::vector<std::uint64_t> rounds = {1, 5, 10, 15, 20};
  std::uint64_t replicas = 1;
  /// Round-pair duration of the engine under test.
  double round_time = 1.4;
  /// When true (the Monte Carlo default) each replica draws its own
  /// fractional offset inside the round window; when false all cells
  /// use `fixed_offset` (the sequential campaign's behavior).
  bool jitter_offset = true;
  double fixed_offset = 0.3;
  std::uint64_t seed = 1;

  /// Worker threads; 0 = hardware concurrency.
  unsigned threads = 1;
  /// Progress journal path; empty disables journaling.
  std::string journal_path;
  /// Load the journal and skip already-completed cells.
  bool resume = false;
  /// Extra fingerprint salt for engine parameters the runner closes
  /// over (scheme, alpha, s, ...), so a journal cannot be resumed
  /// against a differently configured engine.
  std::uint64_t runner_fingerprint = 0;
  /// Half-open dispatch range [cell_lo, cell_hi): cells outside it
  /// are neither executed nor counted (the sharding hook — run
  /// disjoint ranges in separate processes, `merge_journals` their
  /// journals, resume the merged journal for the full-campaign
  /// digest). Not fingerprinted: shards of one campaign must share
  /// one journal fingerprint. The default covers every cell.
  std::uint64_t cell_lo = 0;
  std::uint64_t cell_hi = ~0ull;

  // --- adaptive sampling (variance-targeted early stop) -----------

  /// Relative confidence-interval target; 0 (the default) keeps the
  /// fixed-replica lattice. When > 0 each (kind, round) stratum
  /// dispatches its replicas in `batch`-sized waves and stops as soon
  /// as the 95% Student-t half-width of every tracked statistic
  /// (total_time always; detection_latency once it has two samples)
  /// drops to `target_ci` times the statistic's mean — bounded below
  /// by `min_replicas` and above by `replicas`, which becomes the
  /// per-stratum *maximum*. Stopping decisions are pure functions of
  /// canonically-ordered results, so the summary digest is bitwise
  /// identical for every thread count and across kill/--resume.
  /// These three knobs shape which cells run and are folded into the
  /// fingerprint — but only when sampling is armed, so fixed-replica
  /// fingerprints (and their journals) are unchanged.
  double target_ci = 0.0;
  /// Never stop a stratum before this many replicas.
  std::uint64_t min_replicas = 8;
  /// Replicas dispatched per wave; decisions land at multiples.
  std::uint64_t batch = 32;

  /// True when the adaptive trial stream replaces the fixed lattice.
  [[nodiscard]] bool sampling() const noexcept { return target_ci > 0.0; }

  // --- failure-path knobs (never part of the fingerprint: they do
  // --- not shape any cell's result, only how failures are handled).

  /// Watchdog timeout per cell attempt, seconds; 0 disables the
  /// watchdog (cells run inline on the pool worker).
  double cell_timeout = 0.0;
  /// Retry attempts after a failed/hung attempt before the cell is
  /// quarantined. The retry re-derives the cell's RNG substream from
  /// scratch, so a retried cell's result is bitwise identical to a
  /// first-try success.
  unsigned max_retries = 2;
  /// Base backoff before the first retry, milliseconds; doubles per
  /// retry, capped at 100x the base.
  double retry_backoff_ms = 1.0;
  /// Chaos fault-point spec (see runtime::Chaos); "" disarms.
  std::string chaos;

  /// Absolute deadline; the epoch default means "none". Cells not yet
  /// dispatched when the deadline passes are skipped and the summary
  /// comes back partial with `deadline_exceeded = true`; in-flight
  /// cells are bounded by the watchdog, whose effective timeout is
  /// clamped to the time remaining.
  std::chrono::steady_clock::time_point deadline{};
  /// When false the campaign ignores the process-wide drain flag
  /// (vds_serve uses this: SIGTERM must finish in-flight requests,
  /// not truncate them). Programmatic deadlines still apply.
  bool honor_global_drain = true;

  [[nodiscard]] std::size_t cells() const noexcept {
    return kinds.size() * rounds.size() *
           static_cast<std::size_t>(replicas);
  }

  /// Fingerprint over everything that shapes the per-cell work.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;
};

/// One unit of Monte Carlo work, identified by its canonical index
///   index = (kind_index * |rounds| + round_index) * replicas + replica.
struct McCell {
  std::uint64_t index = 0;
  vds::fault::FaultKind kind = vds::fault::FaultKind::kTransient;
  std::uint64_t round = 1;
  std::uint64_t replica = 0;
};

/// Per-cell result; exactly what aggregation (and the journal)
/// needs, nothing more.
struct McCellResult {
  core::InjectionOutcome outcome = core::InjectionOutcome::kNoEffect;
  double detection_latency = -1.0;  ///< -1 when never detected
  double recovery_time = 0.0;
  double total_time = 0.0;
  std::uint64_t rounds_committed = 0;

  [[nodiscard]] bool operator==(const McCellResult&) const = default;
};

/// Per-(kind, round) stratum outcome of an adaptive-sampling
/// campaign (absent in fixed-replica mode). `replicas_run` counts the
/// cells that contributed to the summary; `achieved_ci` is the
/// relative Student-t half-width at the last decision point (0 when
/// the stratum was never evaluated, +inf when no interval existed —
/// under two samples, or a zero mean with nonzero spread).
struct McStratumStats {
  vds::fault::FaultKind kind = vds::fault::FaultKind::kTransient;
  std::uint64_t round = 0;
  std::uint64_t replicas_run = 0;
  double achieved_ci = 0.0;
  bool early_stopped = false;
};

/// Merged campaign aggregate. Shards are combined with `merge()`
/// (exact counts + Chan-et-al accumulator merge); the engine always
/// folds shards in canonical cell order, so the final summary is
/// bitwise identical for every thread count.
struct McSummary {
  core::CampaignSummary outcomes;
  vds::sim::Accumulator detection_latency;  ///< over detected cells
  vds::sim::Accumulator recovery_time;      ///< over recovering cells
  vds::sim::Accumulator total_time;         ///< over all cells
  vds::sim::Accumulator rounds_committed;   ///< over all cells
  std::uint64_t cells_executed = 0;  ///< ran this invocation (not journaled)
  std::uint64_t cells_resumed = 0;   ///< satisfied from the journal

  // Failure-path bookkeeping (all excluded from the digest: a campaign
  // that limped through retries, corruption, or a drain must still
  // digest-match its clean twin once every cell is accounted for).
  std::uint64_t cells_retried = 0;      ///< succeeded after >=1 retry
  std::uint64_t cells_quarantined = 0;  ///< gave up after max_retries
  std::uint64_t records_corrupt = 0;    ///< journal lines discarded on load
  std::uint64_t cells_skipped = 0;      ///< left unrun by a graceful drain
  bool drained = false;                 ///< a drain request stopped dispatch
  bool deadline_exceeded = false;       ///< a deadline stopped dispatch
  std::vector<std::uint64_t> quarantined;  ///< indices, canonical order
  /// Per-stratum sampling outcomes, stratum order (kind-major);
  /// empty in fixed-replica mode. merge() concatenates.
  std::vector<McStratumStats> strata;

  void add(const McCellResult& result);
  void merge(const McSummary& other);

  /// Order-sensitive hash of every moment and count — two summaries
  /// with equal digests are bitwise identical. Used by the
  /// determinism tests and the scaling bench. Deliberately excludes
  /// the failure-path bookkeeping fields above.
  [[nodiscard]] std::uint64_t digest() const noexcept;
};

/// Executes one engine run for a cell. `timeline` holds the drawn
/// fault; `rng` is the cell's private substream, already advanced
/// past the fault draw — split engine/predictor streams from it.
using McRunner = std::function<core::RunReport(
    const McCell& cell, vds::fault::FaultTimeline& timeline,
    vds::sim::Rng& rng)>;

/// A runner executing core::SmtVds with the given options; the
/// engine seed derives from each cell's substream.
[[nodiscard]] McRunner make_smt_runner(core::VdsOptions options);

// --- graceful drain ---------------------------------------------------
// A drain request (SIGINT/SIGTERM, or programmatic) stops dispatching
// new cells: in-flight cells finish and are journaled, undispatched
// cells are skipped and the campaign returns a partial summary with
// `drained = true`. The journal stays resumable — a later --resume
// completes the remaining cells to the exact digest of an
// uninterrupted run.

/// Installs SIGINT/SIGTERM handlers that call request_drain(). The
/// handlers only set a lock-free flag (async-signal-safe).
void install_drain_signal_handlers();

void request_drain() noexcept;
void clear_drain_request() noexcept;
[[nodiscard]] bool drain_requested() noexcept;

/// Runs the campaign across a work-stealing pool. Cells fan out over
/// `config.threads` workers; each cell draws its fault from
/// `Rng(config.seed).substream(cell index)` so the work decomposition
/// has no effect on any random draw. Aggregation shards the cell
/// results into fixed blocks, reduces the blocks in parallel and
/// merges them in canonical order — the returned summary is bitwise
/// identical for every thread count, and (with a journal) across
/// kill/resume boundaries.
///
/// Failure handling: with `cell_timeout > 0` every attempt runs under
/// a watchdog; a hung or throwing attempt is retried up to
/// `max_retries` times with capped exponential backoff, then the cell
/// is quarantined (counted and listed in the summary, never fatal).
/// Journal records carry CRC32C checksums; on resume, corrupt or torn
/// records are skipped, counted in `records_corrupt`, and their cells
/// re-executed, so the merged digest matches the uninterrupted run.
///
/// Throws std::runtime_error if a journal is present but was written
/// by a different configuration, or if a journal append fails
/// mid-campaign (the worker's exception is captured by the pool and
/// rethrown here — a truncated journal must not masquerade as a
/// resumable one); std::invalid_argument if `config.chaos` does not
/// parse.
[[nodiscard]] McSummary run_mc_campaign(const McConfig& config,
                                        const McRunner& runner);

/// One campaign's worth of cell tasks, decoupled from pool ownership
/// so several campaigns can share a single warm pool (vds_serve
/// batches compatible requests this way). Usage:
///
///   McExecution exec(config, runner);   // journal load/resume here
///   exec.enqueue(pool);                 // submits every pending cell
///   pool.wait_idle();                   // caller-owned barrier
///   McSummary s = exec.reduce(pool);    // canonical-order reduction
///
/// Because every cell re-derives its RNG substream from
/// `Rng(config.seed).substream(index)`, interleaving cells from
/// different executions on one pool cannot perturb any result — the
/// summary stays bitwise identical to a private-pool run.
///
/// The constructor throws like run_mc_campaign (journal mismatch,
/// bad chaos spec). enqueue/reduce must be called at most once, in
/// that order, with the same pool; the pool's wait_idle() rethrows
/// any journal-append failure raised by a cell task.
class McExecution {
 public:
  McExecution(McConfig config, McRunner runner);
  ~McExecution();

  McExecution(const McExecution&) = delete;
  McExecution& operator=(const McExecution&) = delete;

  /// Arms the pool's chaos site from this execution's parsed chaos
  /// spec (no-op when disarmed). Callers sharing a pool across
  /// executions — vds_serve — deliberately skip this.
  void arm_chaos(ThreadPool& pool) const noexcept;

  /// Submits every not-yet-satisfied cell onto `pool`, one task per
  /// block of up to 64 contiguous cells. Cells observe drain/deadline
  /// when their turn in the block comes, so a request can still be
  /// abandoned after enqueueing. In sampling mode this submits each
  /// stratum's first wave, one task per cell; later waves chain from
  /// the worker that resolves the last cell of the previous one, so
  /// the caller's `pool.wait_idle()` still covers the whole adaptive
  /// stream.
  void enqueue(ThreadPool& pool);

  /// Reduces the per-cell results (sharded, canonical order) into the
  /// final summary. Only valid once the pool has gone idle.
  [[nodiscard]] McSummary reduce(ThreadPool& pool);

  /// Dispatch progress snapshot; safe to poll from another thread
  /// while the pool runs (every counter is an atomic). `target` is
  /// the number of cells this invocation can still resolve — it
  /// shrinks when a stratum stops early.
  struct Progress {
    std::uint64_t resolved = 0;        ///< cells in a final state
    std::uint64_t target = 0;          ///< cells this run will resolve
    std::uint64_t strata_stopped = 0;  ///< strata stopped early so far
    std::uint64_t strata_total = 0;    ///< 0 in fixed-replica mode
  };
  [[nodiscard]] Progress progress() const noexcept;

 private:
  struct State;
  /// Runs one pending cell (drain/deadline check, watchdog, retries,
  /// quarantine); true when it produced a result.
  bool run_cell(std::uint64_t index);
  /// Runs the pending cells of [begin, end) — at most 64 — and
  /// journals their records with one write when the block ends.
  void run_block(std::uint64_t begin, std::uint64_t end);
  void run_cell_sampling(ThreadPool& pool, std::uint64_t index,
                         std::uint64_t stratum);
  void advance_stratum(ThreadPool& pool, std::uint64_t stratum);

  McConfig config_;
  McRunner runner_;
  std::unique_ptr<State> state_;
};

/// Writes the `vds.mc_summary.v1` JSON snapshot (config + summary).
void write_snapshot(std::ostream& os, const McConfig& config,
                    const McSummary& summary);

/// Same document through a caller-configured writer (vds_serve uses a
/// compact writer to keep the response on one line — byte-identical
/// to the pretty form modulo whitespace).
void write_snapshot(JsonWriter& writer, const McConfig& config,
                    const McSummary& summary);

}  // namespace vds::runtime
