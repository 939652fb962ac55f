#include "runtime/mc_campaign.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <chrono>

#include "core/smt_engine.hpp"
#include "runtime/journal.hpp"
#include "runtime/thread_pool.hpp"

namespace vds::runtime {
namespace {

core::VdsOptions engine_options() {
  core::VdsOptions options;
  options.t = 1.0;
  options.c = 0.1;
  options.t_cmp = 0.1;
  options.alpha = 0.65;
  options.s = 20;
  options.job_rounds = 40;
  options.scheme = core::RecoveryScheme::kRollForwardDet;
  options.permanent_affects_others_prob = 0.0;
  return options;
}

McConfig small_config() {
  McConfig config;
  config.rounds = {1, 4, 8};
  config.replicas = 8;  // 4 kinds x 3 rounds x 8 = 96 cells
  config.round_time = 2.0 * 0.65 + 0.1;
  config.seed = 7;
  return config;
}

void expect_bitwise_equal(const McSummary& a, const McSummary& b) {
  EXPECT_EQ(a.outcomes, b.outcomes);
  EXPECT_EQ(a.detection_latency.count(), b.detection_latency.count());
  // Exact floating-point equality is the point: the decomposition must
  // not perturb a single bit of any moment.
  EXPECT_EQ(a.detection_latency.mean(), b.detection_latency.mean());
  EXPECT_EQ(a.detection_latency.variance(), b.detection_latency.variance());
  EXPECT_EQ(a.detection_latency.min(), b.detection_latency.min());
  EXPECT_EQ(a.detection_latency.max(), b.detection_latency.max());
  EXPECT_EQ(a.recovery_time.mean(), b.recovery_time.mean());
  EXPECT_EQ(a.recovery_time.variance(), b.recovery_time.variance());
  EXPECT_EQ(a.total_time.mean(), b.total_time.mean());
  EXPECT_EQ(a.total_time.variance(), b.total_time.variance());
  EXPECT_EQ(a.rounds_committed.sum(), b.rounds_committed.sum());
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(McCampaign, GridShapeAndCounts) {
  McConfig config = small_config();
  config.threads = 2;
  const McSummary summary =
      run_mc_campaign(config, make_smt_runner(engine_options()));
  EXPECT_EQ(summary.outcomes.injections, 96u);
  EXPECT_EQ(summary.cells_executed, 96u);
  EXPECT_EQ(summary.cells_resumed, 0u);
  EXPECT_EQ(summary.total_time.count(), 96u);
}

TEST(McCampaign, MergedSummaryIdenticalAcrossThreadCounts) {
  const McRunner runner = make_smt_runner(engine_options());
  McConfig config = small_config();
  config.threads = 1;
  const McSummary serial = run_mc_campaign(config, runner);
  config.threads = 8;
  const McSummary parallel = run_mc_campaign(config, runner);
  expect_bitwise_equal(serial, parallel);
}

TEST(McCampaign, SingleFaultSafetyMatchesSequentialCampaign) {
  // The det scheme keeps every single injected fault safe (the E17
  // result); the Monte Carlo estimate must agree exactly.
  McConfig config = small_config();
  config.threads = 4;
  const McSummary summary =
      run_mc_campaign(config, make_smt_runner(engine_options()));
  EXPECT_DOUBLE_EQ(summary.outcomes.safety(), 1.0);
  EXPECT_EQ(summary.outcomes.count(core::InjectionOutcome::kSilent), 0u);
}

TEST(McCampaign, JitterSamplesDistinctFaultPositions) {
  McConfig config = small_config();
  config.kinds = {fault::FaultKind::kTransient};
  config.replicas = 32;
  config.threads = 2;
  const McSummary summary =
      run_mc_campaign(config, make_smt_runner(engine_options()));
  // Distinct fault offsets within the round window yield distinct
  // detection latencies -- the variance the closed form averages over.
  EXPECT_GT(summary.detection_latency.count(), 0u);
  EXPECT_GT(summary.detection_latency.variance(), 0.0);
}

TEST(McCampaign, FixedOffsetReproducesPointEstimate) {
  McConfig config = small_config();
  config.kinds = {fault::FaultKind::kTransient};
  config.jitter_offset = false;
  config.fixed_offset = 0.3;
  config.replicas = 4;
  config.threads = 2;
  const McSummary summary =
      run_mc_campaign(config, make_smt_runner(engine_options()));
  // All replicas of a cell see the same fault instant; latency varies
  // only across rounds.
  EXPECT_EQ(summary.outcomes.injections, 12u);
  EXPECT_GT(summary.detection_latency.count(), 0u);
}

TEST(McCampaign, EmptyGridThrows) {
  McConfig config = small_config();
  config.rounds.clear();
  EXPECT_THROW(
      (void)run_mc_campaign(config, make_smt_runner(engine_options())),
      std::runtime_error);
}

TEST(McCampaign, FingerprintCoversGridAndSeed) {
  const McConfig base = small_config();
  McConfig other = base;
  other.seed = base.seed + 1;
  EXPECT_NE(base.fingerprint(), other.fingerprint());
  other = base;
  other.replicas = base.replicas + 1;
  EXPECT_NE(base.fingerprint(), other.fingerprint());
  other = base;
  other.rounds.push_back(12);
  EXPECT_NE(base.fingerprint(), other.fingerprint());
  other = base;
  other.runner_fingerprint = 99;
  EXPECT_NE(base.fingerprint(), other.fingerprint());
  EXPECT_EQ(base.fingerprint(), small_config().fingerprint());
}

/// A journal file cut into its header and its records, each record as
/// its raw v3 frame (marker, payload length, payload, CRC32C, '\n').
struct JournalBytes {
  std::string header;
  std::vector<std::string> records;
};

JournalBytes split_journal(const std::string& path) {
  constexpr std::size_t kHeaderBytes = 21;
  std::ifstream in(path, std::ios::binary);
  const std::string data(std::istreambuf_iterator<char>(in), {});
  JournalBytes out;
  out.header = data.substr(0, kHeaderBytes);
  for (std::size_t pos = kHeaderBytes; pos < data.size();) {
    const std::size_t frame =
        2 + static_cast<unsigned char>(data[pos + 1]) + 4 + 1;
    out.records.push_back(data.substr(pos, frame));
    pos += frame;
  }
  return out;
}

class McJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             (std::string("vds_mc_test_") +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name() +
              ".journal"))
                .string();
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(McJournalTest, ResumeSkipsJournaledCellsAndMatchesUninterrupted) {
  const McRunner runner = make_smt_runner(engine_options());

  // Uninterrupted reference run.
  McConfig config = small_config();
  config.threads = 2;
  config.journal_path = path_;
  const McSummary reference = run_mc_campaign(config, runner);
  EXPECT_EQ(reference.cells_executed, 96u);

  // Simulate a kill mid-campaign: keep the header and the first 40
  // complete records, then half of the next one.
  const JournalBytes journal = split_journal(path_);
  ASSERT_EQ(journal.records.size(), 96u);
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << journal.header;
    for (std::size_t k = 0; k < 40; ++k) out << journal.records[k];
    // The torn write at the kill instant.
    out << journal.records[40].substr(0, journal.records[40].size() / 2);
  }

  // Relaunch with --resume semantics.
  config.resume = true;
  const McSummary resumed = run_mc_campaign(config, runner);
  EXPECT_EQ(resumed.cells_resumed, 40u);
  EXPECT_EQ(resumed.cells_executed, 56u);
  EXPECT_EQ(resumed.records_corrupt, 1u);  // the torn record
  expect_bitwise_equal(reference, resumed);
}

TEST_F(McJournalTest, ResumedCellsAreNotReExecuted) {
  std::atomic<std::uint64_t> runs{0};
  const McRunner base_runner = make_smt_runner(engine_options());
  const McRunner counting_runner =
      [&](const McCell& cell, fault::FaultTimeline& timeline,
          sim::Rng& rng) {
        runs.fetch_add(1);
        return base_runner(cell, timeline, rng);
      };

  McConfig config = small_config();
  config.threads = 2;
  config.journal_path = path_;
  (void)run_mc_campaign(config, counting_runner);
  EXPECT_EQ(runs.load(), 96u);

  config.resume = true;
  const McSummary resumed = run_mc_campaign(config, counting_runner);
  // Every cell came from the journal; the runner never fired again.
  EXPECT_EQ(runs.load(), 96u);
  EXPECT_EQ(resumed.cells_resumed, 96u);
  EXPECT_EQ(resumed.cells_executed, 0u);
}

TEST_F(McJournalTest, ResumeRejectsMismatchedConfiguration) {
  McConfig config = small_config();
  config.threads = 1;
  config.journal_path = path_;
  (void)run_mc_campaign(config, make_smt_runner(engine_options()));

  config.resume = true;
  config.seed = 12345;  // different campaign
  EXPECT_THROW(
      (void)run_mc_campaign(config, make_smt_runner(engine_options())),
      std::runtime_error);
}

TEST_F(McJournalTest, FreshRunOverwritesStaleJournal) {
  McConfig config = small_config();
  config.threads = 1;
  config.journal_path = path_;
  (void)run_mc_campaign(config, make_smt_runner(engine_options()));

  // Without --resume a different campaign may reuse the path.
  config.seed = 99;
  config.resume = false;
  const McSummary fresh =
      run_mc_campaign(config, make_smt_runner(engine_options()));
  EXPECT_EQ(fresh.cells_executed, 96u);
  // And the journal now belongs to the new fingerprint.
  EXPECT_EQ(Journal::load(path_, config.fingerprint()).records.size(), 96u);
}

TEST_F(McJournalTest, BitFlippedJournalResumesToGoldenDigest) {
  const McRunner runner = make_smt_runner(engine_options());
  McConfig config = small_config();
  config.threads = 2;

  const McSummary reference = run_mc_campaign(config, runner);

  // Write the journal through chaos: ~30% of the records hit the file
  // with a flipped bit, reported to the campaign as clean appends --
  // silent substrate corruption.
  config.journal_path = path_;
  config.chaos = "journal.corrupt=0.3";
  const McSummary chaotic = run_mc_campaign(config, runner);
  EXPECT_EQ(chaotic.digest(), reference.digest());  // write-side only

  // Resume under a clean config: the CRCs catch every flipped record,
  // those cells re-execute, and the digest still matches.
  config.chaos.clear();
  config.resume = true;
  const McSummary resumed = run_mc_campaign(config, runner);
  EXPECT_GT(resumed.records_corrupt, 0u);
  EXPECT_EQ(resumed.cells_executed, resumed.records_corrupt);
  EXPECT_EQ(resumed.cells_resumed + resumed.cells_executed, 96u);
  expect_bitwise_equal(reference, resumed);
}

TEST_F(McJournalTest, TornJournalWritesResumeToGoldenDigest) {
  const McRunner runner = make_smt_runner(engine_options());
  McConfig config = small_config();
  config.threads = 2;

  const McSummary reference = run_mc_campaign(config, runner);

  // Torn appends (half a record, no newline) glue onto the next line;
  // the checksum rejects the merged wreckage and both cells re-run.
  config.journal_path = path_;
  config.chaos = "journal.torn=0.2";
  (void)run_mc_campaign(config, runner);

  config.chaos.clear();
  config.resume = true;
  const McSummary resumed = run_mc_campaign(config, runner);
  EXPECT_GT(resumed.records_corrupt, 0u);
  EXPECT_EQ(resumed.cells_resumed + resumed.cells_executed, 96u);
  expect_bitwise_equal(reference, resumed);
}

TEST_F(McJournalTest, CellRangeShardsMergeToFullDigest) {
  // The sharding story end to end: two half-campaigns journal
  // disjoint --cell-range windows, merge_journals combines them, and
  // resuming the merged journal with the full range reproduces the
  // single-process digest without executing a single cell.
  const McRunner runner = make_smt_runner(engine_options());
  McConfig config = small_config();
  config.threads = 2;
  const McSummary reference = run_mc_campaign(config, runner);

  const std::string shard_a = path_ + ".a";
  const std::string shard_b = path_ + ".b";
  McConfig shard = config;
  shard.journal_path = shard_a;
  shard.cell_lo = 0;
  shard.cell_hi = 48;
  const McSummary half_a = run_mc_campaign(shard, runner);
  EXPECT_EQ(half_a.cells_executed, 48u);
  shard.journal_path = shard_b;
  shard.cell_lo = 48;
  shard.cell_hi = 96;
  (void)run_mc_campaign(shard, runner);

  const JournalMergeStats stats =
      merge_journals({shard_a, shard_b}, path_);
  EXPECT_EQ(stats.records_out, 96u);
  EXPECT_EQ(stats.duplicates, 0u);

  config.journal_path = path_;
  config.resume = true;
  const McSummary resumed = run_mc_campaign(config, runner);
  EXPECT_EQ(resumed.cells_resumed, 96u);
  EXPECT_EQ(resumed.cells_executed, 0u);
  expect_bitwise_equal(reference, resumed);

  std::remove(shard_a.c_str());
  std::remove(shard_b.c_str());
}

TEST(McCampaign, EmptyCellRangeThrows) {
  McConfig config = small_config();
  config.cell_lo = 96;  // at/after the last cell: nothing to do
  EXPECT_THROW(
      (void)run_mc_campaign(config, make_smt_runner(engine_options())),
      std::runtime_error);
  config.cell_lo = 5;
  config.cell_hi = 5;
  EXPECT_THROW(
      (void)run_mc_campaign(config, make_smt_runner(engine_options())),
      std::runtime_error);
}

TEST(McChaos, InjectedFailureIsRetriedToTheGoldenResult) {
  const McRunner runner = make_smt_runner(engine_options());
  McConfig config = small_config();
  config.threads = 4;
  const McSummary reference = run_mc_campaign(config, runner);

  // Every cell's first attempt fails; the retry re-derives the cell
  // substream from scratch, so the campaign still lands bitwise on
  // the reference.
  config.chaos = "cell.fail=1:1";
  config.retry_backoff_ms = 0.01;
  const McSummary retried = run_mc_campaign(config, runner);
  EXPECT_EQ(retried.cells_retried, 96u);
  EXPECT_EQ(retried.cells_quarantined, 0u);
  expect_bitwise_equal(reference, retried);
}

TEST(McChaos, ExhaustedRetriesQuarantineTheCellNotTheCampaign) {
  McConfig config = small_config();
  config.kinds = {fault::FaultKind::kTransient};
  config.rounds = {1, 4};
  config.replicas = 2;  // 4 cells
  config.threads = 2;
  config.chaos = "cell.fail=1";  // every attempt of every cell
  config.max_retries = 1;
  config.retry_backoff_ms = 0.01;
  const McSummary summary =
      run_mc_campaign(config, make_smt_runner(engine_options()));
  EXPECT_EQ(summary.cells_quarantined, 4u);
  EXPECT_EQ(summary.cells_executed, 0u);
  EXPECT_EQ(summary.outcomes.injections, 0u);
  ASSERT_EQ(summary.quarantined.size(), 4u);
  // Canonical index order, independent of scheduling.
  EXPECT_EQ(summary.quarantined,
            (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST(McChaos, WatchdogTimesOutHungCellThenRetrySucceeds) {
  const McRunner runner = make_smt_runner(engine_options());
  McConfig config = small_config();
  config.kinds = {fault::FaultKind::kTransient};
  config.rounds = {1, 4};
  config.replicas = 2;  // 4 cells
  config.threads = 2;
  const McSummary reference = run_mc_campaign(config, runner);

  config.chaos = "cell.hang=1:1";  // first attempt of every cell hangs
  config.cell_timeout = 0.05;
  config.retry_backoff_ms = 0.01;
  const McSummary summary = run_mc_campaign(config, runner);
  EXPECT_EQ(summary.cells_retried, 4u);
  EXPECT_EQ(summary.cells_quarantined, 0u);
  expect_bitwise_equal(reference, summary);
}

TEST(McChaos, WatchdogQuarantinesAPermanentlyHungCell) {
  McConfig config = small_config();
  config.kinds = {fault::FaultKind::kTransient};
  config.rounds = {1};
  config.replicas = 2;  // 2 cells
  config.threads = 2;
  config.chaos = "cell.hang=1";  // hangs on every attempt
  config.cell_timeout = 0.05;
  config.max_retries = 1;
  config.retry_backoff_ms = 0.01;
  const McSummary summary =
      run_mc_campaign(config, make_smt_runner(engine_options()));
  EXPECT_EQ(summary.cells_quarantined, 2u);
  EXPECT_EQ(summary.cells_executed, 0u);
}

TEST(McChaos, MalformedSpecThrowsInvalidArgument) {
  McConfig config = small_config();
  config.chaos = "cell.fail=2";
  EXPECT_THROW(
      (void)run_mc_campaign(config, make_smt_runner(engine_options())),
      std::invalid_argument);
}

TEST_F(McJournalTest, DrainStopsDispatchAndResumeFinishesTheCampaign) {
  const McRunner base_runner = make_smt_runner(engine_options());
  McConfig config = small_config();
  config.threads = 2;
  const McSummary reference = run_mc_campaign(config, base_runner);

  // A runner that pulls the andon cord after 20 cells -- the
  // in-process stand-in for SIGINT mid-campaign.
  std::atomic<std::uint64_t> ran{0};
  const McRunner draining_runner =
      [&](const McCell& cell, fault::FaultTimeline& timeline,
          sim::Rng& rng) {
        if (ran.fetch_add(1) + 1 == 20) request_drain();
        return base_runner(cell, timeline, rng);
      };

  config.journal_path = path_;
  clear_drain_request();
  const McSummary partial = run_mc_campaign(config, draining_runner);
  clear_drain_request();
  EXPECT_TRUE(partial.drained);
  EXPECT_GT(partial.cells_skipped, 0u);
  EXPECT_LT(partial.cells_executed, 96u);
  EXPECT_EQ(partial.cells_executed + partial.cells_skipped, 96u);

  // Every journaled record survived the drain; resume finishes the
  // rest and lands on the uninterrupted digest.
  config.resume = true;
  const McSummary resumed = run_mc_campaign(config, base_runner);
  EXPECT_FALSE(resumed.drained);
  EXPECT_EQ(resumed.cells_resumed, partial.cells_executed);
  EXPECT_EQ(resumed.cells_resumed + resumed.cells_executed, 96u);
  expect_bitwise_equal(reference, resumed);
}

TEST(McCampaign, SnapshotEmitsSchemaAndDigest) {
  McConfig config = small_config();
  config.threads = 2;
  const McSummary summary =
      run_mc_campaign(config, make_smt_runner(engine_options()));
  std::ostringstream out;
  write_snapshot(out, config, summary);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"schema\": \"vds.mc_summary.v1\""),
            std::string::npos);
  EXPECT_NE(text.find("\"injections\": 96"), std::string::npos);
  EXPECT_NE(text.find("\"digest\""), std::string::npos);
  char digest_hex[20];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(summary.digest()));
  EXPECT_NE(text.find(digest_hex), std::string::npos);
  // The robustness counters ship with every snapshot.
  EXPECT_NE(text.find("\"cells_retried\": 0"), std::string::npos);
  EXPECT_NE(text.find("\"cells_quarantined\": 0"), std::string::npos);
  EXPECT_NE(text.find("\"records_corrupt\": 0"), std::string::npos);
  EXPECT_NE(text.find("\"drained\": false"), std::string::npos);
  EXPECT_NE(text.find("\"quarantined\""), std::string::npos);
  EXPECT_NE(text.find("\"chaos\": \"\""), std::string::npos);
  // deadline_exceeded is conditional -- absent here so the committed
  // golden snapshots stay byte-identical.
  EXPECT_EQ(text.find("deadline_exceeded"), std::string::npos);
}

// --- McExecution decomposition and deadlines --------------------------

TEST(McExecution, DecompositionMatchesRunMcCampaign) {
  const McRunner runner = make_smt_runner(engine_options());
  McConfig config = small_config();
  config.threads = 3;
  const McSummary whole = run_mc_campaign(config, runner);

  // The serve path: construct, enqueue on a caller-owned pool, await,
  // reduce. Must not perturb a single bit.
  McExecution exec(config, runner);
  ThreadPool pool(3);
  exec.enqueue(pool);
  pool.wait_idle();
  const McSummary pieces = exec.reduce(pool);
  expect_bitwise_equal(whole, pieces);
  EXPECT_FALSE(pieces.deadline_exceeded);
}

TEST(McExecution, SharedPoolInterleavesTwoCampaignsWithoutPerturbation) {
  const McRunner runner = make_smt_runner(engine_options());
  McConfig config_a = small_config();
  McConfig config_b = small_config();
  config_b.seed = 99;
  const McSummary alone_a = run_mc_campaign(config_a, runner);
  const McSummary alone_b = run_mc_campaign(config_b, runner);

  // Batched the way vds_serve batches: both campaigns' cells enqueued
  // before one barrier, interleaving freely on the shared pool.
  McExecution exec_a(config_a, runner);
  McExecution exec_b(config_b, runner);
  ThreadPool pool(4);
  exec_a.enqueue(pool);
  exec_b.enqueue(pool);
  pool.wait_idle();
  const McSummary shared_a = exec_a.reduce(pool);
  const McSummary shared_b = exec_b.reduce(pool);
  expect_bitwise_equal(alone_a, shared_a);
  expect_bitwise_equal(alone_b, shared_b);
}

TEST(McExecution, ExpiredDeadlineSkipsEveryCell) {
  McConfig config = small_config();
  config.threads = 2;
  config.deadline =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  const McSummary summary =
      run_mc_campaign(config, make_smt_runner(engine_options()));
  EXPECT_TRUE(summary.deadline_exceeded);
  EXPECT_EQ(summary.cells_executed, 0u);
  EXPECT_EQ(summary.cells_skipped, 96u);
  EXPECT_EQ(summary.cells_quarantined, 0u);  // deadline is not a fault
  EXPECT_FALSE(summary.drained);

  std::ostringstream out;
  write_snapshot(out, config, summary);
  EXPECT_NE(out.str().find("\"deadline_exceeded\": true"),
            std::string::npos);
}

TEST(McExecution, FarDeadlineLeavesTheSummaryUntouched) {
  const McRunner runner = make_smt_runner(engine_options());
  McConfig config = small_config();
  config.threads = 2;
  const McSummary free_run = run_mc_campaign(config, runner);
  config.deadline =
      std::chrono::steady_clock::now() + std::chrono::hours(24);
  const McSummary timed = run_mc_campaign(config, runner);
  EXPECT_FALSE(timed.deadline_exceeded);
  expect_bitwise_equal(free_run, timed);
}

// --- adaptive sampling ------------------------------------------------

McConfig sampling_config() {
  McConfig config = small_config();
  config.replicas = 64;  // per-stratum maximum; 4 kinds x 3 rounds
  config.target_ci = 0.08;
  config.min_replicas = 8;
  config.batch = 8;
  return config;
}

TEST(McSampling, StopsEarlyAndReportsStrata) {
  McConfig config = sampling_config();
  config.threads = 4;
  const McSummary summary =
      run_mc_campaign(config, make_smt_runner(engine_options()));
  ASSERT_EQ(summary.strata.size(), 12u);
  std::uint64_t early = 0;
  for (const McStratumStats& stats : summary.strata) {
    EXPECT_GE(stats.replicas_run, config.min_replicas);
    EXPECT_LE(stats.replicas_run, config.replicas);
    if (stats.early_stopped) {
      ++early;
      EXPECT_LE(stats.achieved_ci, config.target_ci);
      EXPECT_LT(stats.replicas_run, config.replicas);
    }
  }
  // The point of the refactor: strata converge before the cap.
  EXPECT_GT(early, 0u);
  EXPECT_LT(summary.cells_executed, config.cells());
  EXPECT_EQ(summary.total_time.count(), summary.cells_executed);
}

TEST(McSampling, DigestIdenticalAcrossThreadCounts) {
  const McRunner runner = make_smt_runner(engine_options());
  McConfig config = sampling_config();
  config.threads = 1;
  const McSummary serial = run_mc_campaign(config, runner);
  config.threads = 4;
  const McSummary four = run_mc_campaign(config, runner);
  config.threads = 8;
  const McSummary eight = run_mc_campaign(config, runner);
  expect_bitwise_equal(serial, four);
  expect_bitwise_equal(serial, eight);
}

TEST(McSampling, FingerprintFoldsKnobsOnlyWhenArmed) {
  const McConfig fixed = small_config();
  McConfig other = fixed;
  other.min_replicas = 99;
  other.batch = 5;
  // Disarmed knobs are inert: fixed-replica journals stay resumable.
  EXPECT_EQ(fixed.fingerprint(), other.fingerprint());
  McConfig armed = fixed;
  armed.target_ci = 0.05;
  EXPECT_NE(fixed.fingerprint(), armed.fingerprint());
  McConfig tighter = armed;
  tighter.target_ci = 0.01;
  EXPECT_NE(armed.fingerprint(), tighter.fingerprint());
  McConfig bigger_batch = armed;
  bigger_batch.batch = 64;
  EXPECT_NE(armed.fingerprint(), bigger_batch.fingerprint());
}

TEST(McSampling, FixedModeReportsNoStrata) {
  McConfig config = small_config();
  config.threads = 2;
  const McSummary summary =
      run_mc_campaign(config, make_smt_runner(engine_options()));
  EXPECT_TRUE(summary.strata.empty());
}

TEST(McSampling, MinReplicasFloorsEveryStratum) {
  McConfig config = sampling_config();
  config.target_ci = 10.0;  // absurdly loose: stop at the first look
  config.threads = 4;
  const McSummary summary =
      run_mc_campaign(config, make_smt_runner(engine_options()));
  for (const McStratumStats& stats : summary.strata) {
    EXPECT_EQ(stats.replicas_run, config.min_replicas);
  }
}

TEST(McSampling, UnattainableTargetMatchesFixedLatticeBitwise) {
  // A target no stratum can reach degrades to the full lattice: the
  // summary must be bitwise identical to the fixed-replica run.
  // Transient faults under jitter keep every stratum's latency
  // variance nonzero (a zero-variance stratum converges at *any*
  // positive target -- its half-width is exactly zero).
  const McRunner runner = make_smt_runner(engine_options());
  McConfig fixed = sampling_config();
  fixed.kinds = {fault::FaultKind::kTransient};
  fixed.target_ci = 0.0;
  fixed.threads = 4;
  const McSummary lattice = run_mc_campaign(fixed, runner);
  McConfig strict = fixed;
  strict.target_ci = 1e-9;
  const McSummary sampled = run_mc_campaign(strict, runner);
  EXPECT_EQ(sampled.cells_executed, strict.cells());
  for (const McStratumStats& stats : sampled.strata) {
    EXPECT_FALSE(stats.early_stopped);
  }
  expect_bitwise_equal(lattice, sampled);
}

TEST(McSampling, ChaosRetriesAreDigestInvisible) {
  const McRunner runner = make_smt_runner(engine_options());
  McConfig config = sampling_config();
  config.threads = 4;
  const McSummary clean = run_mc_campaign(config, runner);
  config.chaos = "cell.fail=0.2";
  config.cell_timeout = 5.0;
  config.max_retries = 12;  // deep enough that nothing quarantines
  const McSummary chaotic = run_mc_campaign(config, runner);
  EXPECT_GT(chaotic.cells_retried, 0u);
  EXPECT_EQ(chaotic.cells_quarantined, 0u);
  expect_bitwise_equal(clean, chaotic);
}

TEST_F(McJournalTest, SamplingResumeReplaysStoppingPointsExactly) {
  const McRunner runner = make_smt_runner(engine_options());
  McConfig config = sampling_config();
  config.threads = 4;
  config.journal_path = path_;
  const McSummary reference = run_mc_campaign(config, runner);

  const JournalLoad loaded = Journal::inspect(path_);
  EXPECT_FALSE(loaded.stops.empty());  // early stops were journaled

  config.resume = true;
  const McSummary resumed = run_mc_campaign(config, runner);
  EXPECT_EQ(resumed.cells_executed, 0u);
  EXPECT_EQ(resumed.cells_resumed, reference.cells_executed);
  expect_bitwise_equal(reference, resumed);

  // Replayed decisions are never re-appended: the journal must not
  // grow across repeated resumes.
  const JournalLoad again = Journal::inspect(path_);
  EXPECT_EQ(again.records.size(), loaded.records.size());
  EXPECT_EQ(again.stops.size(), loaded.stops.size());
}

TEST_F(McJournalTest, SamplingKillAcrossStopBoundaryResumesToFullDigest) {
  // Simulates a mid-campaign kill by truncating the journal to a
  // prefix of its records — cells may be missing, stop records may be
  // lost. The resume must re-derive the same stopping points and
  // reproduce the uninterrupted digest.
  const McRunner runner = make_smt_runner(engine_options());
  McConfig config = sampling_config();
  config.threads = 2;
  config.journal_path = path_;
  const McSummary reference = run_mc_campaign(config, runner);

  const JournalBytes journal = split_journal(path_);
  ASSERT_GT(journal.records.size(), 10u);
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << journal.header;
    for (std::size_t i = 0; i < journal.records.size() / 3; ++i) {
      out << journal.records[i];
    }
  }

  config.resume = true;
  const McSummary resumed = run_mc_campaign(config, runner);
  EXPECT_GT(resumed.cells_executed, 0u);
  expect_bitwise_equal(reference, resumed);
}

TEST_F(McJournalTest, SamplingShardsMergeAndResumeToFullDigest) {
  // Three processes shard one adaptive campaign with --cell-range
  // windows that split strata mid-way; the merged journal resumed
  // with the full range must replay the decisions the single-process
  // run made and match its digest bit for bit.
  const McRunner runner = make_smt_runner(engine_options());
  McConfig config = sampling_config();
  config.threads = 2;
  const McSummary reference = run_mc_campaign(config, runner);

  const std::vector<std::pair<std::uint64_t, std::uint64_t>> windows = {
      {0, 300}, {300, 550}, {550, 768}};
  std::vector<std::string> shards;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    McConfig shard = config;
    shard.journal_path = path_ + "." + std::to_string(i);
    shard.cell_lo = windows[i].first;
    shard.cell_hi = windows[i].second;
    (void)run_mc_campaign(shard, runner);
    shards.push_back(shard.journal_path);
  }
  (void)merge_journals(shards, path_);

  config.journal_path = path_;
  config.resume = true;
  const McSummary resumed = run_mc_campaign(config, runner);
  EXPECT_EQ(resumed.cells_executed, 0u);
  expect_bitwise_equal(reference, resumed);
  for (const std::string& shard : shards) std::remove(shard.c_str());
}

TEST_F(McJournalTest, SamplingQuarantineBlocksDecisionsUntilCleanResume) {
  // A quarantined replica punches a hole in a stratum's canonical
  // prefix, so that stratum must not decide this run (it runs to the
  // cap instead); a clean resume repairs the holes and lands on the
  // clean campaign's digest.
  const McRunner runner = make_smt_runner(engine_options());
  McConfig config = sampling_config();
  config.threads = 4;
  const McSummary clean = run_mc_campaign(config, runner);

  config.journal_path = path_;
  config.chaos = "cell.fail=0.1:30";
  config.max_retries = 0;
  const McSummary damaged = run_mc_campaign(config, runner);
  ASSERT_GT(damaged.cells_quarantined, 0u);

  config.chaos.clear();
  config.max_retries = 2;
  config.resume = true;
  const McSummary resumed = run_mc_campaign(config, runner);
  EXPECT_EQ(resumed.cells_quarantined, 0u);
  expect_bitwise_equal(clean, resumed);
}

}  // namespace
}  // namespace vds::runtime
