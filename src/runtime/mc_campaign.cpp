#include "runtime/mc_campaign.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/smt_engine.hpp"
#include "runtime/chaos.hpp"
#include "runtime/journal.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"

namespace vds::runtime {

namespace {

// Campaign-level event counts. Everything here is a pure function of
// the workload — retries/quarantines included, because chaos decisions
// hash (seed, site, cell, attempt), not wall-clock — except skipped
// cells, which depend on when a drain signal arrived.
struct McCounters {
  metrics::Counter& executed;
  metrics::Counter& resumed;
  metrics::Counter& retried;
  metrics::Counter& quarantined;
  metrics::Counter& skipped;
  metrics::Counter& corrupt;
  metrics::Timing& attempt_ms;
};

McCounters& mc_counters() {
  using metrics::Determinism;
  auto& reg = metrics::registry();
  static McCounters counters{
      reg.counter("mc.cells_executed", Determinism::kDeterministic),
      reg.counter("mc.cells_resumed", Determinism::kDeterministic),
      reg.counter("mc.cells_retried", Determinism::kDeterministic),
      reg.counter("mc.cells_quarantined", Determinism::kDeterministic),
      reg.counter("mc.cells_skipped", Determinism::kScheduling),
      reg.counter("mc.records_corrupt", Determinism::kDeterministic),
      reg.timing("mc.cell_attempt_ms"),
  };
  return counters;
}

/// Cells per aggregation shard. Shards are fixed index blocks (not
/// per-worker bins), so the reduction shape is independent of the
/// thread count and of which worker ran which cell.
constexpr std::size_t kShardCells = 64;

/// Most cells one dispatch task runs. A range of n cells is cut into
/// blocks of clamp(ceil(n / 64), 1, 64) cells: a range of up to 64
/// cells keeps one cell a task, a larger one splits into about 64
/// blocks, and from 4096 cells on every block is full. The size
/// depends on n alone, never on the worker count, so the pool's task
/// counters stay deterministic.
constexpr std::size_t kBlockCells = Journal::kMaxBlock;

std::uint64_t hash_double(double x, std::uint64_t h) noexcept {
  return fnv1a(&x, sizeof x, h);
}

std::uint64_t hash_u64(std::uint64_t x, std::uint64_t h) noexcept {
  return fnv1a(&x, sizeof x, h);
}

std::uint64_t hash_accumulator(const vds::sim::Accumulator& acc,
                               std::uint64_t h) noexcept {
  h = hash_u64(acc.count(), h);
  h = hash_double(acc.mean(), h);
  h = hash_double(acc.variance(), h);
  h = hash_double(acc.min(), h);
  h = hash_double(acc.max(), h);
  h = hash_double(acc.sum(), h);
  return h;
}

McCell cell_at(const McConfig& config, std::uint64_t index) {
  McCell cell;
  cell.index = index;
  const std::uint64_t replicas = config.replicas;
  const std::uint64_t rounds = config.rounds.size();
  cell.replica = index % replicas;
  const std::uint64_t grid = index / replicas;
  cell.round = config.rounds[grid % rounds];
  cell.kind = config.kinds[grid / rounds];
  return cell;
}

/// Draws the cell's fault. The draw order matches the sequential
/// campaign (victim, location, word, bit) with the offset appended,
/// every value coming from the cell's private substream.
vds::fault::Fault draw_fault(const McConfig& config, const McCell& cell,
                             vds::sim::Rng& rng) {
  vds::fault::Fault fault;
  fault.kind = cell.kind;
  fault.victim = rng.bernoulli(0.5) ? vds::fault::Victim::kVersion1
                                    : vds::fault::Victim::kVersion2;
  fault.location = static_cast<std::uint32_t>(rng.uniform_index(16));
  fault.word = static_cast<std::uint32_t>(rng.uniform_index(1u << 16));
  fault.bit = static_cast<std::uint8_t>(rng.uniform_index(64));
  const double offset =
      config.jitter_offset ? rng.uniform() : config.fixed_offset;
  fault.when = (static_cast<double>(cell.round) - 1.0) * config.round_time +
               offset * config.round_time;
  return fault;
}

McCellResult to_cell_result(const core::RunReport& report) {
  McCellResult result;
  result.outcome = core::classify_outcome(report);
  result.detection_latency = report.detection_latency.empty()
                                 ? -1.0
                                 : report.detection_latency.mean();
  result.recovery_time =
      report.recovery_time.empty() ? 0.0 : report.recovery_time.mean();
  result.total_time = report.total_time;
  result.rounds_committed = report.rounds_committed;
  return result;
}

JournalRecord to_record(std::uint64_t index, const McCellResult& result) {
  JournalRecord record;
  record.index = index;
  record.outcome = static_cast<int>(result.outcome);
  record.detection_latency = result.detection_latency;
  record.recovery_time = result.recovery_time;
  record.total_time = result.total_time;
  record.rounds_committed = result.rounds_committed;
  return record;
}

McCellResult from_record(const JournalRecord& record) {
  McCellResult result;
  result.outcome = static_cast<core::InjectionOutcome>(record.outcome);
  result.detection_latency = record.detection_latency;
  result.recovery_time = record.recovery_time;
  result.total_time = record.total_time;
  result.rounds_committed = record.rounds_committed;
  return result;
}

void write_json(JsonWriter& json, const char* name,
                const vds::sim::Accumulator& acc) {
  json.key(name).begin_object();
  json.field("count", static_cast<std::uint64_t>(acc.count()));
  json.field("mean", acc.mean());
  json.field("stddev", acc.stddev());
  json.field("sem", acc.sem());
  json.field("min", acc.min());
  json.field("max", acc.max());
  json.field("sum", acc.sum());
  json.end_object();
}

}  // namespace

std::uint64_t McConfig::fingerprint() const noexcept {
  std::uint64_t h = fnv1a("vds-mc-config-v1");
  for (const auto kind : kinds) {
    h = hash_u64(static_cast<std::uint64_t>(kind), h);
  }
  h = hash_u64(0xfeed, h);  // domain separator kinds/rounds
  for (const auto round : rounds) h = hash_u64(round, h);
  h = hash_u64(replicas, h);
  h = hash_double(round_time, h);
  h = hash_u64(jitter_offset ? 1 : 0, h);
  h = hash_double(fixed_offset, h);
  h = hash_u64(seed, h);
  h = hash_u64(runner_fingerprint, h);
  // Folded only when armed: the knobs shape which cells run, but a
  // fixed-replica campaign must keep its pre-sampling fingerprint so
  // existing journals stay resumable.
  if (sampling()) {
    h = fnv1a(std::string_view("vds-mc-sampling-v1"), h);
    h = hash_double(target_ci, h);
    h = hash_u64(min_replicas, h);
    h = hash_u64(batch, h);
  }
  return h;
}

void McSummary::add(const McCellResult& result) {
  ++outcomes.by_outcome[static_cast<std::size_t>(result.outcome)];
  ++outcomes.injections;
  if (result.detection_latency >= 0.0) {
    detection_latency.add(result.detection_latency);
  }
  if (result.recovery_time > 0.0) recovery_time.add(result.recovery_time);
  total_time.add(result.total_time);
  rounds_committed.add(static_cast<double>(result.rounds_committed));
}

void McSummary::merge(const McSummary& other) {
  outcomes.merge(other.outcomes);
  detection_latency.merge(other.detection_latency);
  recovery_time.merge(other.recovery_time);
  total_time.merge(other.total_time);
  rounds_committed.merge(other.rounds_committed);
  cells_executed += other.cells_executed;
  cells_resumed += other.cells_resumed;
  cells_retried += other.cells_retried;
  cells_quarantined += other.cells_quarantined;
  records_corrupt += other.records_corrupt;
  cells_skipped += other.cells_skipped;
  drained = drained || other.drained;
  deadline_exceeded = deadline_exceeded || other.deadline_exceeded;
  quarantined.insert(quarantined.end(), other.quarantined.begin(),
                     other.quarantined.end());
  strata.insert(strata.end(), other.strata.begin(), other.strata.end());
}

std::uint64_t McSummary::digest() const noexcept {
  // The failure-path bookkeeping (cells_executed/resumed/retried/
  // quarantined, records_corrupt, skip/drain state) is deliberately
  // excluded: a resumed or retried campaign must digest-match its
  // uninterrupted twin.
  std::uint64_t h = fnv1a("vds-mc-summary-v1");
  for (const auto count : outcomes.by_outcome) h = hash_u64(count, h);
  h = hash_u64(outcomes.injections, h);
  h = hash_accumulator(detection_latency, h);
  h = hash_accumulator(recovery_time, h);
  h = hash_accumulator(total_time, h);
  h = hash_accumulator(rounds_committed, h);
  return h;
}

McRunner make_smt_runner(core::VdsOptions options) {
  return [options](const McCell&, vds::fault::FaultTimeline& timeline,
                   vds::sim::Rng& rng) {
    core::SmtVds vds(options, rng.split(1));
    vds.set_predictor(
        std::make_unique<vds::fault::RandomPredictor>(rng.split(2)));
    return vds.run(timeline);
  };
}

// --- graceful drain ---------------------------------------------------

namespace {

std::atomic<bool> g_drain_requested{false};
static_assert(std::atomic<bool>::is_always_lock_free,
              "the drain flag must be settable from a signal handler");

}  // namespace

void request_drain() noexcept { g_drain_requested.store(true); }
void clear_drain_request() noexcept { g_drain_requested.store(false); }
bool drain_requested() noexcept { return g_drain_requested.load(); }

void install_drain_signal_handlers() {
  // Only the lock-free atomic store happens in signal context.
  std::signal(SIGINT, +[](int) { g_drain_requested.store(true); });
  std::signal(SIGTERM, +[](int) { g_drain_requested.store(true); });
}

// --- per-cell execution with watchdog / retry -------------------------

namespace {

/// How a cell's task left the campaign. Each slot is written by at
/// most one pool task; the pool barrier publishes them to the reducer.
enum CellState : char {
  kPending = 0,
  kResumed,      ///< satisfied from the journal
  kExecuted,     ///< ran (possibly after retries) this invocation
  kQuarantined,  ///< every attempt failed or timed out
  kSkipped,      ///< dispatch stopped by a graceful drain
  kBeyondStop,   ///< journaled past a stratum's stopping point; an
                 ///< overlapping or partial-window shard ran further
                 ///< than the decision kept — excluded from reduce
};

/// A retryable attempt failure (runner exception, injected chaos
/// failure, or watchdog timeout). Anything else a cell task throws —
/// journal I/O above all — is a harness failure and propagates.
struct CellAttemptFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Runs one attempt of one cell. Every random draw comes from the
/// cell's own substream, a pure function of (seed, index), re-derived
/// from scratch here: neither scheduling nor the attempt number can
/// perturb it, so a retried cell reproduces a first-try result
/// bitwise.
McCellResult execute_attempt(const McConfig& config, const McCell& cell,
                             const Chaos& chaos, const McRunner& runner,
                             unsigned attempt) {
  if (chaos.fires(kChaosCellFail, cell.index, attempt)) {
    throw CellAttemptFailure("chaos: injected failure (cell " +
                             std::to_string(cell.index) + ", attempt " +
                             std::to_string(attempt) + ")");
  }
  if (chaos.fires(kChaosCellHang, cell.index, attempt)) {
    // Long enough to trip the watchdog, short enough that a disabled
    // watchdog only slows the campaign instead of wedging it.
    const double seconds = config.cell_timeout > 0.0
                               ? std::min(4.0 * config.cell_timeout, 2.0)
                               : 0.05;
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
  vds::sim::Rng rng = vds::sim::Rng(config.seed).substream(cell.index);
  vds::fault::Fault fault = draw_fault(config, cell, rng);
  vds::fault::FaultTimeline timeline({fault});
  return to_cell_result(runner(cell, timeline, rng));
}

/// One attempt under the watchdog. With no timeout the attempt runs
/// inline; with one it runs on a dedicated thread so a hang can be
/// abandoned: on timeout the thread is detached and only touches its
/// own shared state (which outlives it), never the campaign's.
McCellResult attempt_cell(const McConfig& config, const McCell& cell,
                          const Chaos& chaos, const McRunner& runner,
                          unsigned attempt) {
  if (config.cell_timeout <= 0.0) {
    try {
      return execute_attempt(config, cell, chaos, runner, attempt);
    } catch (const CellAttemptFailure&) {
      throw;
    } catch (const std::exception& error) {
      throw CellAttemptFailure(error.what());
    } catch (...) {
      throw CellAttemptFailure("unknown error");
    }
  }

  struct Shared {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    bool failed = false;
    std::string error;
    McCellResult result;
  };
  auto shared = std::make_shared<Shared>();
  // Everything the (possibly abandoned) attempt touches is captured
  // by value; a hung attempt finishing after the campaign returned
  // writes only into `shared` and is ignored.
  std::thread worker([shared, config, cell, chaos, runner, attempt] {
    McCellResult result;
    bool failed = false;
    std::string error;
    try {
      result = execute_attempt(config, cell, chaos, runner, attempt);
    } catch (const std::exception& e) {
      failed = true;
      error = e.what();
    } catch (...) {
      failed = true;
      error = "unknown error";
    }
    {
      std::lock_guard<std::mutex> lock(shared->mutex);
      shared->result = result;
      shared->failed = failed;
      shared->error = std::move(error);
      shared->done = true;
    }
    shared->cv.notify_all();
  });

  std::unique_lock<std::mutex> lock(shared->mutex);
  const bool finished = shared->cv.wait_for(
      lock, std::chrono::duration<double>(config.cell_timeout),
      [&] { return shared->done; });
  if (!finished) {
    lock.unlock();
    worker.detach();
    throw CellAttemptFailure(
        "cell " + std::to_string(cell.index) + " attempt " +
        std::to_string(attempt) + " exceeded the watchdog timeout (" +
        std::to_string(config.cell_timeout) + "s)");
  }
  const bool failed = shared->failed;
  McCellResult result = shared->result;
  std::string error = shared->error;
  lock.unlock();
  worker.join();
  if (failed) throw CellAttemptFailure(error);
  return result;
}

/// Capped exponential backoff before retry `attempt + 1`.
void retry_backoff(const McConfig& config, unsigned attempt) {
  if (config.retry_backoff_ms <= 0.0) return;
  const double factor = static_cast<double>(1ull << std::min(attempt, 20u));
  const double ms = std::min(config.retry_backoff_ms * factor,
                             config.retry_backoff_ms * 100.0);
  std::this_thread::sleep_for(std::chrono::duration<double>(ms / 1000.0));
}

bool has_deadline(const McConfig& config) noexcept {
  return config.deadline.time_since_epoch().count() != 0;
}

bool past_deadline(const McConfig& config) noexcept {
  return has_deadline(config) &&
         std::chrono::steady_clock::now() >= config.deadline;
}

// --- adaptive sampling decisions --------------------------------------

/// First replica count at which a stratum's CI is evaluated: the
/// smallest multiple of `batch` at or above max(min_replicas, 2) —
/// two samples are the least that define a variance — capped at the
/// per-stratum maximum. Later decisions land every `batch` replicas,
/// with a forced final decision at `replicas`.
std::uint64_t first_decision(const McConfig& config) noexcept {
  const std::uint64_t lowest =
      std::max<std::uint64_t>(config.min_replicas, 2);
  const std::uint64_t step = std::max<std::uint64_t>(config.batch, 1);
  const std::uint64_t point = (lowest + step - 1) / step * step;
  return std::min(point, config.replicas);
}

/// Relative 95% Student-t half-width: half-width / |mean|. +inf when
/// no interval exists yet (under two samples, or a zero mean with
/// nonzero spread); exactly 0 for zero-variance data.
double relative_halfwidth(const vds::sim::Accumulator& acc) noexcept {
  if (acc.count() < 2) return std::numeric_limits<double>::infinity();
  const double halfwidth = acc.ci_halfwidth_t(0.95);
  if (halfwidth == 0.0) return 0.0;
  const double mean = std::fabs(acc.mean());
  if (mean == 0.0) return std::numeric_limits<double>::infinity();
  return halfwidth / mean;
}

}  // namespace

// --- shared-pool execution --------------------------------------------

struct McExecution::State {
  metrics::Span campaign_span{"mc.campaign", "mc"};
  std::size_t cells = 0;
  Chaos chaos;
  std::vector<McCellResult> results;
  std::vector<char> cell_state;
  std::uint64_t resumed = 0;
  std::uint64_t corrupt = 0;
  std::unique_ptr<Journal> journal;
  std::size_t block_cells = 1;  ///< cells per dispatch block
  std::size_t dispatch_hi = 0;  ///< end of the dispatch range, clamped
  std::atomic<std::uint64_t> executed{0};
  std::atomic<std::uint64_t> retried{0};
  std::atomic<bool> deadline_hit{false};

  /// Per-(kind, round) adaptive-sampling state. The non-atomic
  /// decision fields are only ever touched by one thread at a time:
  /// the enqueueing thread first, then whichever worker resolves the
  /// last cell of a wave — the acq_rel decrement of `outstanding`
  /// hands them off.
  struct StratumState {
    std::uint64_t base = 0;          ///< first cell index
    std::uint64_t next_replica = 0;  ///< replicas dispatched/replayed
    std::uint64_t eval_point = 0;    ///< next decision point (replicas)
    std::uint64_t stop_at = 0;       ///< replicas kept once decided
    double achieved_ci = 0.0;        ///< relative CI at last decision
    bool decided = false;
    bool early_stopped = false;
    bool blocked = false;  ///< quarantine hole / partial shard window
    bool live = false;     ///< submitted at least one wave this run
    std::atomic<std::uint64_t> outstanding{0};
    std::atomic<bool> abandoned{false};  ///< drain/deadline hit a cell
  };
  std::unique_ptr<StratumState[]> strata_state;  // array: atomics pin it
  std::uint64_t strata_count = 0;

  // Progress heartbeat (advisory; every field an atomic so a poller
  // thread can read mid-campaign).
  std::atomic<std::uint64_t> resolved{0};
  std::atomic<std::uint64_t> target{0};
  std::atomic<std::uint64_t> strata_stopped{0};
};

McExecution::McExecution(McConfig config, McRunner runner)
    : config_(std::move(config)),
      runner_(std::move(runner)),
      state_(std::make_unique<State>()) {
  if (config_.kinds.empty() || config_.rounds.empty() ||
      config_.replicas == 0) {
    throw std::runtime_error("mc campaign: empty grid");
  }
  if (config_.cell_lo >= config_.cell_hi ||
      config_.cell_lo >= config_.cells()) {
    throw std::runtime_error("mc campaign: empty cell range [" +
                             std::to_string(config_.cell_lo) + ", " +
                             std::to_string(config_.cell_hi) + ") in a " +
                             std::to_string(config_.cells()) +
                             "-cell campaign");
  }
  if (config_.sampling() &&
      (config_.min_replicas == 0 || config_.batch == 0)) {
    throw std::runtime_error(
        "mc campaign: sampling requires min_replicas >= 1 and batch >= 1");
  }
  State& st = *state_;
  st.cells = config_.cells();
  st.chaos = Chaos::parse(config_.chaos, config_.seed);
  const std::uint64_t fingerprint = config_.fingerprint();

  st.results.resize(st.cells);
  st.cell_state.assign(st.cells, kPending);

  std::vector<JournalRecord> stop_records;
  if (!config_.journal_path.empty()) {
    if (config_.resume) {
      JournalLoad loaded = Journal::load(config_.journal_path, fingerprint);
      st.corrupt = loaded.corrupt;
      for (const JournalRecord& record : loaded.records) {
        // Out-of-range or duplicate cells (a corrupted index that
        // still checksummed, or a double append) are dropped; the
        // first occurrence wins, matching the uninterrupted order.
        if (record.index >= st.cells ||
            st.cell_state[record.index] != kPending) {
          ++st.corrupt;
          continue;
        }
        st.results[record.index] = from_record(record);
        st.cell_state[record.index] = kResumed;
        ++st.resumed;
      }
      stop_records = std::move(loaded.stops);
    } else {
      // A fresh (non-resuming) campaign starts a fresh journal.
      std::remove(config_.journal_path.c_str());
    }
    st.journal = std::make_unique<Journal>(config_.journal_path, fingerprint);
    if (st.chaos.armed()) st.journal->arm_chaos(&st.chaos);
  }

  if (config_.sampling()) {
    st.strata_count = config_.kinds.size() * config_.rounds.size();
    st.strata_state =
        std::make_unique<State::StratumState[]>(st.strata_count);
    for (std::uint64_t s = 0; s < st.strata_count; ++s) {
      st.strata_state[s].base = s * config_.replicas;
    }
    // Stop records pin stopping points decided by an earlier run (or
    // another shard): the stratum replays that decision instead of
    // re-deciding, and journaled results past the point are excluded
    // so the digest matches the deciding run's.
    for (const JournalRecord& record : stop_records) {
      if (record.index >= st.strata_count || record.stop_after == 0 ||
          record.stop_after > config_.replicas ||
          st.strata_state[record.index].decided) {
        ++st.corrupt;
        continue;
      }
      State::StratumState& str = st.strata_state[record.index];
      str.decided = true;
      str.stop_at = record.stop_after;
      str.eval_point = record.stop_after;
      str.achieved_ci = record.achieved_ci;
      str.early_stopped = record.stop_after < config_.replicas;
      if (str.early_stopped) {
        st.strata_stopped.fetch_add(1, std::memory_order_relaxed);
      }
      for (std::uint64_t r = record.stop_after; r < config_.replicas; ++r) {
        const std::uint64_t index = str.base + r;
        if (st.cell_state[index] == kResumed) {
          st.cell_state[index] = kBeyondStop;
        }
      }
    }
    for (std::uint64_t s = 0; s < st.strata_count; ++s) {
      State::StratumState& str = st.strata_state[s];
      if (str.decided) continue;
      // A stratum can only decide when every replica it might need is
      // reachable — inside the dispatch window or already journaled.
      // A partial-window shard instead runs its whole slice with no
      // decisions; the merged-journal resume replays the decision
      // over the assembled prefix.
      bool coverable = true;
      for (std::uint64_t r = 0; r < config_.replicas; ++r) {
        const std::uint64_t index = str.base + r;
        if (st.cell_state[index] == kPending &&
            (index < config_.cell_lo || index >= config_.cell_hi)) {
          coverable = false;
          break;
        }
      }
      if (coverable) {
        str.eval_point = first_decision(config_);
      } else {
        str.blocked = true;
        str.eval_point = config_.replicas;
      }
    }
  }

  // Progress baseline: what is already resolved, and what this
  // invocation can still resolve (in-window pending cells, minus
  // those past an already-decided stopping point).
  std::uint64_t resolved = 0;
  std::uint64_t target = 0;
  for (std::uint64_t index = 0; index < st.cells; ++index) {
    if (st.cell_state[index] != kPending) {
      ++resolved;
      ++target;
      continue;
    }
    if (index < config_.cell_lo || index >= config_.cell_hi) continue;
    if (config_.sampling()) {
      const State::StratumState& str =
          st.strata_state[index / config_.replicas];
      if (str.decided && index - str.base >= str.stop_at) continue;
    }
    ++target;
  }
  st.resolved.store(resolved, std::memory_order_relaxed);
  st.target.store(target, std::memory_order_relaxed);

  mc_counters().resumed.add(st.resumed);
  mc_counters().corrupt.add(st.corrupt);
}

McExecution::~McExecution() = default;

void McExecution::arm_chaos(ThreadPool& pool) const noexcept {
  if (state_->chaos.armed()) pool.arm_chaos(&state_->chaos);
}

bool McExecution::run_cell(std::uint64_t index) {
  State& st = *state_;
  const bool late = past_deadline(config_);
  if (late || (config_.honor_global_drain && drain_requested())) {
    if (late) st.deadline_hit.store(true, std::memory_order_relaxed);
    st.cell_state[index] = kSkipped;
    st.resolved.fetch_add(1, std::memory_order_relaxed);
    mc_counters().skipped.add();
    return false;
  }
  // With a deadline set, clamp the watchdog so an in-flight cell
  // cannot overrun the time remaining (and enable it if it was off).
  const McConfig* config = &config_;
  McConfig clamped;
  if (has_deadline(config_)) {
    // Never at or below zero: that would read as "watchdog off" and
    // let the attempt run unbounded right when time has run out.
    const double remaining = std::max(
        std::chrono::duration<double>(config_.deadline -
                                      std::chrono::steady_clock::now())
            .count(),
        1e-3);
    clamped = config_;
    clamped.cell_timeout = config_.cell_timeout > 0.0
                               ? std::min(config_.cell_timeout, remaining)
                               : remaining;
    config = &clamped;
  }

  const McCell cell = cell_at(config_, index);
  const metrics::Span cell_span("mc.cell", "mc", index);
  McCellResult result;
  for (unsigned attempt = 0;; ++attempt) {
    try {
      {
        const metrics::ScopedTimer timer(mc_counters().attempt_ms);
        result = attempt_cell(*config, cell, st.chaos, runner_, attempt);
      }
      if (attempt > 0) {
        st.retried.fetch_add(1, std::memory_order_relaxed);
        mc_counters().retried.add();
      }
      break;
    } catch (const CellAttemptFailure&) {
      if (past_deadline(config_)) {
        // The deadline, not the cell, is what failed: report the cell
        // as skipped (resumable), never quarantined.
        st.deadline_hit.store(true, std::memory_order_relaxed);
        st.cell_state[index] = kSkipped;
        st.resolved.fetch_add(1, std::memory_order_relaxed);
        mc_counters().skipped.add();
        return false;
      }
      if (attempt >= config_.max_retries) {
        // Give up on the cell, not on the campaign: quarantine is
        // reported in the summary and the cell stays out of the
        // journal, so a later --resume gets another shot at it.
        st.cell_state[index] = kQuarantined;
        st.resolved.fetch_add(1, std::memory_order_relaxed);
        mc_counters().quarantined.add();
        return false;
      }
      if (config_.honor_global_drain && drain_requested()) {
        st.cell_state[index] = kSkipped;
        st.resolved.fetch_add(1, std::memory_order_relaxed);
        mc_counters().skipped.add();
        return false;
      }
      retry_backoff(config_, attempt);
    }
  }
  st.results[index] = result;
  st.cell_state[index] = kExecuted;
  st.resolved.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void McExecution::run_block(std::uint64_t begin, std::uint64_t end) {
  State& st = *state_;
  std::size_t executed = 0;
  for (std::uint64_t index = begin; index < end; ++index) {
    if (st.cell_state[index] == kPending && run_cell(index)) ++executed;
  }
  // One write for the whole block: only this task moves the range's
  // cells to kExecuted. Journal failures bypass the retry loop on
  // purpose: a journal that cannot persist progress must fail the
  // campaign (the pool captures this throw and wait_idle reports it).
  if (st.journal && executed > 0) {
    std::array<JournalRecord, kBlockCells> records;
    std::size_t count = 0;
    for (std::uint64_t index = begin; index < end; ++index) {
      if (st.cell_state[index] == kExecuted) {
        records[count++] = to_record(index, st.results[index]);
      }
    }
    st.journal->append(std::span(records.data(), count));
  }
  st.executed.fetch_add(executed, std::memory_order_relaxed);
  mc_counters().executed.add(executed);
}

void McExecution::run_cell_sampling(ThreadPool& pool, std::uint64_t index,
                                    std::uint64_t stratum) {
  run_block(index, index + 1);
  State& st = *state_;
  State::StratumState& str = st.strata_state[stratum];
  if (st.cell_state[index] == kSkipped) {
    // Drain/deadline skipped the cell: the canonical prefix has a
    // hole only a --resume can fill, so the stratum stops chaining.
    str.abandoned.store(true, std::memory_order_relaxed);
  }
  if (str.outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last cell of the wave: this worker inherits the stratum's
    // decision state (the acq_rel decrement orders every other
    // worker's result writes before this).
    advance_stratum(pool, stratum);
  }
}

void McExecution::advance_stratum(ThreadPool& pool, std::uint64_t stratum) {
  State& st = *state_;
  State::StratumState& str = st.strata_state[stratum];
  for (;;) {
    if (str.abandoned.load(std::memory_order_relaxed)) return;
    // Dispatch the wave up to the next decision point. Cells already
    // satisfied (resumed) are skipped; an all-resolved wave falls
    // through to a synchronous replay of the decision below.
    std::vector<std::uint64_t> wave;
    for (std::uint64_t r = str.next_replica; r < str.eval_point; ++r) {
      const std::uint64_t index = str.base + r;
      if (st.cell_state[index] != kPending) continue;
      if (index < config_.cell_lo || index >= config_.cell_hi) continue;
      wave.push_back(index);
    }
    str.next_replica = str.eval_point;
    if (!wave.empty()) {
      str.live = true;
      str.outstanding.store(wave.size(), std::memory_order_relaxed);
      for (const std::uint64_t index : wave) {
        pool.submit([this, &pool, index, stratum] {
          run_cell_sampling(pool, index, stratum);
        });
      }
      return;  // the wave's last finisher re-enters advance_stratum
    }
    if (str.decided || str.blocked) return;  // nothing left to decide
    // The prefix [0, eval_point) is fully resolved — decide over it.
    bool quarantined = false;
    for (std::uint64_t r = 0; r < str.eval_point; ++r) {
      const char state = st.cell_state[str.base + r];
      if (state == kSkipped) return;  // resumable later, not decidable
      if (state == kQuarantined) {
        quarantined = true;
        break;
      }
    }
    if (quarantined) {
      // A quarantined replica punches a hole in the canonical prefix;
      // deciding around it would pick a different stopping point than
      // the clean run's. Run the stratum to its maximum instead — a
      // later clean --resume replays the decisions over the repaired
      // prefix and reaches the clean campaign's digest.
      str.blocked = true;
      str.eval_point = config_.replicas;
      continue;
    }
    vds::sim::Accumulator total;
    vds::sim::Accumulator latency;
    for (std::uint64_t r = 0; r < str.eval_point; ++r) {
      const McCellResult& result = st.results[str.base + r];
      total.add(result.total_time);
      if (result.detection_latency >= 0.0) {
        latency.add(result.detection_latency);
      }
    }
    double achieved = relative_halfwidth(total);
    if (latency.count() >= 2) {
      achieved = std::max(achieved, relative_halfwidth(latency));
    }
    str.achieved_ci = achieved;
    if (achieved > config_.target_ci && str.eval_point < config_.replicas) {
      str.eval_point = std::min<std::uint64_t>(config_.replicas,
                                               str.eval_point + config_.batch);
      continue;
    }
    str.decided = true;
    str.stop_at = str.eval_point;
    str.early_stopped = str.stop_at < config_.replicas;
    if (!str.early_stopped) return;
    st.strata_stopped.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t dropped = 0;
    for (std::uint64_t r = str.stop_at; r < config_.replicas; ++r) {
      const std::uint64_t index = str.base + r;
      if (st.cell_state[index] == kResumed) {
        st.cell_state[index] = kBeyondStop;
      } else if (st.cell_state[index] == kPending) {
        ++dropped;
      }
    }
    st.target.fetch_sub(dropped, std::memory_order_relaxed);
    // Pin the stopping point for --resume / merge_journals. Replayed
    // decisions (live == false: every prefix cell came from the
    // journal) are re-derived on each resume and never re-appended,
    // so the journal does not grow across repeated resumes.
    if (str.live && st.journal) {
      JournalRecord record;
      record.stop = true;
      record.index = stratum;
      record.stop_after = str.stop_at;
      record.achieved_ci = str.achieved_ci;
      st.journal->append(record);
    }
    return;
  }
}

void McExecution::enqueue(ThreadPool& pool) {
  State& st = *state_;
  if (config_.sampling()) {
    // Stratified wave dispatch: every stratum submits its first wave
    // here; later waves chain from the worker that resolves the last
    // cell of the previous one, so wait_idle() covers the stream.
    // Fully-resumed strata replay their decisions synchronously.
    for (std::uint64_t s = 0; s < st.strata_count; ++s) {
      advance_stratum(pool, s);
    }
    return;
  }
  // The cell range bounds *dispatch* only: journaled records outside
  // it (a merged journal, an overlapping shard) still count as
  // resumed, so resuming a fully merged journal with the default
  // range reproduces the single-process digest.
  const std::size_t lo =
      static_cast<std::size_t>(std::min<std::uint64_t>(config_.cell_lo,
                                                       st.cells));
  st.dispatch_hi =
      static_cast<std::size_t>(std::min<std::uint64_t>(config_.cell_hi,
                                                       st.cells));
  st.block_cells = std::clamp<std::size_t>(
      (st.dispatch_hi - lo + kBlockCells - 1) / kBlockCells, 1, kBlockCells);
  const auto pending = [](char state) { return state == kPending; };
  for (std::size_t begin = lo; begin < st.dispatch_hi;
       begin += st.block_cells) {
    const std::size_t end = std::min(st.dispatch_hi, begin + st.block_cells);
    if (std::none_of(st.cell_state.begin() + begin,
                     st.cell_state.begin() + end, pending)) {
      continue;
    }
    // Two words of capture keep the task inside std::function's
    // inline buffer: a block without a journal allocates nothing.
    pool.submit([this, begin] {
      const State& st = *state_;
      run_block(begin, std::min(st.dispatch_hi, begin + st.block_cells));
    });
  }
}

McSummary McExecution::reduce(ThreadPool& pool) {
  State& st = *state_;
  // Sharded reduction: fixed index blocks, built in parallel, merged
  // in block order -- deterministic for any thread count. Only cells
  // that actually produced a result participate.
  const std::size_t shard_count =
      (st.cells + kShardCells - 1) / kShardCells;
  std::vector<McSummary> shards(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::size_t lo = s * kShardCells;
    const std::size_t hi = std::min(st.cells, lo + kShardCells);
    // Only a shard that meets the dispatch range or holds a resumed
    // record can hold a result. The rest stay empty, and merging an
    // empty summary changes no bit, so a cell-range lease reduces its
    // own shards instead of the whole grid's.
    if ((hi <= config_.cell_lo || lo >= config_.cell_hi) &&
        std::find(st.cell_state.begin() + lo, st.cell_state.begin() + hi,
                  kResumed) == st.cell_state.begin() + hi) {
      continue;
    }
    pool.submit([&, s, lo, hi] {
      for (std::size_t index = lo; index < hi; ++index) {
        if (st.cell_state[index] == kResumed ||
            st.cell_state[index] == kExecuted) {
          shards[s].add(st.results[index]);
        }
      }
    });
  }
  pool.wait_idle();

  McSummary total;
  for (const McSummary& shard : shards) total.merge(shard);
  total.cells_executed = st.executed.load();
  total.cells_retried = st.retried.load();
  total.records_corrupt = st.corrupt;
  total.drained = config_.honor_global_drain && drain_requested();
  total.deadline_exceeded = st.deadline_hit.load();
  for (std::size_t index = 0; index < st.cells; ++index) {
    if (st.cell_state[index] == kQuarantined) {
      ++total.cells_quarantined;
      total.quarantined.push_back(index);
    } else if (st.cell_state[index] == kSkipped) {
      ++total.cells_skipped;
    } else if (st.cell_state[index] == kResumed) {
      // Counted here rather than from the load tally so records past
      // a stratum's stopping point (kBeyondStop) are not reported as
      // contributing.
      ++total.cells_resumed;
    }
  }
  if (config_.sampling()) {
    const std::uint64_t rounds = config_.rounds.size();
    total.strata.reserve(st.strata_count);
    for (std::uint64_t s = 0; s < st.strata_count; ++s) {
      const State::StratumState& str = st.strata_state[s];
      McStratumStats stats;
      stats.kind = config_.kinds[s / rounds];
      stats.round = config_.rounds[s % rounds];
      for (std::uint64_t r = 0; r < config_.replicas; ++r) {
        const char state = st.cell_state[str.base + r];
        if (state == kExecuted || state == kResumed) ++stats.replicas_run;
      }
      stats.achieved_ci = str.achieved_ci;
      stats.early_stopped = str.early_stopped;
      total.strata.push_back(stats);
    }
  }
  return total;
}

McExecution::Progress McExecution::progress() const noexcept {
  const State& st = *state_;
  Progress snapshot;
  snapshot.resolved = st.resolved.load(std::memory_order_relaxed);
  snapshot.target = st.target.load(std::memory_order_relaxed);
  snapshot.strata_stopped = st.strata_stopped.load(std::memory_order_relaxed);
  snapshot.strata_total = config_.sampling() ? st.strata_count : 0;
  return snapshot;
}

McSummary run_mc_campaign(const McConfig& config, const McRunner& runner) {
  McExecution exec(config, runner);
  ThreadPool pool(config.threads);
  exec.arm_chaos(pool);
  exec.enqueue(pool);
  pool.wait_idle();
  return exec.reduce(pool);
}

void write_snapshot(std::ostream& os, const McConfig& config,
                    const McSummary& summary) {
  JsonWriter json(os);
  write_snapshot(json, config, summary);
}

void write_snapshot(JsonWriter& json, const McConfig& config,
                    const McSummary& summary) {
  json.begin_object();
  // v2 only differs by the sampling fields below; the fixed-replica
  // document stays byte-identical to its committed goldens.
  json.field("schema",
             config.sampling() ? "vds.mc_summary.v2" : "vds.mc_summary.v1");
  json.key("config").begin_object();
  json.key("kinds").begin_array();
  for (const auto kind : config.kinds) {
    json.value(vds::fault::to_string(kind));
  }
  json.end_array();
  json.key("rounds").begin_array();
  for (const auto round : config.rounds) json.value(round);
  json.end_array();
  json.field("replicas", config.replicas);
  json.field("round_time", config.round_time);
  json.field("jitter_offset", config.jitter_offset);
  json.field("seed", config.seed);
  json.field("cells", static_cast<std::uint64_t>(config.cells()));
  json.field("fingerprint", config.fingerprint());
  json.field("cell_timeout", config.cell_timeout);
  json.field("max_retries", static_cast<std::uint64_t>(config.max_retries));
  json.field("chaos", config.chaos);
  if (config.sampling()) {
    json.field("target_ci", config.target_ci);
    json.field("min_replicas", config.min_replicas);
    json.field("max_replicas", config.replicas);
    json.field("batch", config.batch);
  }
  // Conditional so the golden pretty snapshots keep their exact bytes
  // (only sharded runs restrict the range).
  if (config.cell_lo != 0 || config.cell_hi < config.cells()) {
    json.key("cell_range").begin_array();
    json.value(config.cell_lo);
    json.value(std::min<std::uint64_t>(config.cell_hi, config.cells()));
    json.end_array();
  }
  json.end_object();
  json.key("summary").begin_object();
  json.key("outcomes");
  write_json(json, summary.outcomes);
  write_json(json, "detection_latency", summary.detection_latency);
  write_json(json, "recovery_time", summary.recovery_time);
  write_json(json, "total_time", summary.total_time);
  write_json(json, "rounds_committed", summary.rounds_committed);
  json.field("cells_executed", summary.cells_executed);
  json.field("cells_resumed", summary.cells_resumed);
  json.field("cells_retried", summary.cells_retried);
  json.field("cells_quarantined", summary.cells_quarantined);
  json.field("records_corrupt", summary.records_corrupt);
  json.field("cells_skipped", summary.cells_skipped);
  json.field("drained", summary.drained);
  // Conditional so the golden pretty snapshots keep their exact bytes
  // (only deadline-bearing serve requests can set it).
  if (summary.deadline_exceeded) json.field("deadline_exceeded", true);
  if (config.sampling()) {
    json.key("strata").begin_array();
    for (const McStratumStats& stats : summary.strata) {
      json.begin_object();
      json.field("kind", vds::fault::to_string(stats.kind));
      json.field("round", stats.round);
      json.field("replicas_run", stats.replicas_run);
      json.field("achieved_ci", stats.achieved_ci);
      json.field("early_stopped", stats.early_stopped);
      json.end_object();
    }
    json.end_array();
  }
  json.key("quarantined").begin_array();
  // Bounded preview: cells_quarantined carries the full count.
  constexpr std::size_t kQuarantinePreview = 64;
  for (std::size_t k = 0;
       k < std::min(summary.quarantined.size(), kQuarantinePreview); ++k) {
    json.value(summary.quarantined[k]);
  }
  json.end_array();
  char digest_hex[20];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(summary.digest()));
  json.field("digest", digest_hex);
  json.end_object();
  json.end_object();
}

}  // namespace vds::runtime
