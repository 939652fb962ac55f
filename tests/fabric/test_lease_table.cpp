// LeaseTable lifecycle: grant/commit/expire/coalesce/conflict, the
// expiry-racing-completion rule, and crash-exact replay of the
// assignment log (committed leases recovered, open ones re-issued).

#include "fabric/lease_table.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>

namespace vds::fabric {
namespace {

using Clock = LeaseTable::Clock;
using std::chrono::milliseconds;

class LeaseTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workdir_ = (std::filesystem::temp_directory_path() /
                ("vds_lease_table_" +
                 std::string(::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name())))
                   .string();
    std::filesystem::remove_all(workdir_);
    std::filesystem::create_directories(workdir_);
    t0_ = Clock::now();
  }
  void TearDown() override { std::filesystem::remove_all(workdir_); }

  LeaseTable::Options options(std::uint64_t total = 100,
                              std::uint64_t per_lease = 30) {
    LeaseTable::Options opt;
    opt.total_cells = total;
    opt.lease_cells = per_lease;
    opt.fingerprint = 0xfeedu;
    opt.log_path = workdir_ + "/assignment.journal";
    opt.workdir = workdir_;
    opt.expiry = milliseconds(5000);
    opt.backoff_base = milliseconds(100);
    opt.backoff_cap = milliseconds(400);
    return opt;
  }

  std::string workdir_;
  Clock::time_point t0_;
};

TEST_F(LeaseTableTest, CutsRangesWithShortTail) {
  LeaseTable table(options(100, 30));
  EXPECT_EQ(table.lease_count(), 4u);  // 30+30+30+10
  auto a = table.next_grant(t0_);
  auto b = table.next_grant(t0_);
  auto c = table.next_grant(t0_);
  auto d = table.next_grant(t0_);
  ASSERT_TRUE(a && b && c && d);
  EXPECT_EQ(a->lo, 0u);
  EXPECT_EQ(a->hi, 30u);
  EXPECT_EQ(d->lo, 90u);
  EXPECT_EQ(d->hi, 100u);
  EXPECT_EQ(a->attempt, 1u);
  // Everything granted; nothing left to hand out.
  EXPECT_FALSE(table.next_grant(t0_).has_value());
  EXPECT_FALSE(table.all_committed());
}

TEST_F(LeaseTableTest, CommitWalksToAllCommitted) {
  LeaseTable table(options(60, 30));
  const auto a = table.next_grant(t0_);
  const auto b = table.next_grant(t0_);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(table.commit(a->lease, a->attempt, 0x1111, 30),
            LeaseTable::CommitOutcome::kCommitted);
  EXPECT_FALSE(table.all_committed());
  EXPECT_EQ(table.commit(b->lease, b->attempt, 0x2222, 30),
            LeaseTable::CommitOutcome::kCommitted);
  EXPECT_TRUE(table.all_committed());
  const auto journals = table.committed_journals();
  ASSERT_EQ(journals.size(), 2u);
  EXPECT_EQ(journals[0], table.journal_path(0, 1));
  EXPECT_EQ(journals[1], table.journal_path(1, 1));
}

TEST_F(LeaseTableTest, DuplicateCommitCoalescesEqualDigest) {
  LeaseTable table(options(30, 30));
  const auto grant = table.next_grant(t0_);
  ASSERT_TRUE(grant);
  ASSERT_EQ(table.commit(0, 1, 0xabc, 30),
            LeaseTable::CommitOutcome::kCommitted);
  EXPECT_EQ(table.commit(0, 1, 0xabc, 30),
            LeaseTable::CommitOutcome::kCoalesced);
  EXPECT_EQ(table.audit().coalesced, 1u);
  EXPECT_EQ(table.committed_count(), 1u);  // never double-counted
}

TEST_F(LeaseTableTest, DuplicateCommitWithDifferentDigestConflicts) {
  LeaseTable table(options(30, 30));
  const auto grant = table.next_grant(t0_);
  ASSERT_TRUE(grant);
  ASSERT_EQ(table.commit(0, 1, 0xabc, 30),
            LeaseTable::CommitOutcome::kCommitted);
  EXPECT_EQ(table.commit(0, 2, 0xdef, 30),
            LeaseTable::CommitOutcome::kConflict);
  // The conflict commits nothing: the committed digest is unchanged.
  EXPECT_EQ(table.committed_count(), 1u);
  EXPECT_EQ(table.audit().coalesced, 0u);
}

TEST_F(LeaseTableTest, ExpiryReopensWithBackoffAndBumpedAttempt) {
  LeaseTable table(options(30, 30));
  const auto first = table.next_grant(t0_);
  ASSERT_TRUE(first);
  EXPECT_EQ(first->attempt, 1u);

  // Heartbeats hold the lease; silence past expiry reopens it.
  table.heartbeat(0, t0_ + milliseconds(4000));
  EXPECT_TRUE(table.expire_stale(t0_ + milliseconds(5000)).empty());
  const auto expired = table.expire_stale(t0_ + milliseconds(9001));
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], 0u);

  // Backing off: not grantable immediately, grantable after the base.
  EXPECT_FALSE(table.next_grant(t0_ + milliseconds(9001)).has_value());
  const auto second = table.next_grant(t0_ + milliseconds(9102));
  ASSERT_TRUE(second);
  EXPECT_EQ(second->attempt, 2u);
  EXPECT_NE(second->journal, first->journal);  // fresh shard per attempt
  EXPECT_EQ(table.audit().expired, 1u);
}

TEST_F(LeaseTableTest, BackoffIsCappedExponential) {
  LeaseTable table(options(30, 30));
  auto now = t0_;
  // Drive attempts 1..5 through grant -> immediate release; waits
  // needed: 100, 200, 400(cap), 400(cap).
  const milliseconds expected[] = {milliseconds(100), milliseconds(200),
                                   milliseconds(400), milliseconds(400)};
  auto grant = table.next_grant(now);
  ASSERT_TRUE(grant);
  for (const milliseconds wait : expected) {
    table.release(0, now);
    EXPECT_FALSE(table.next_grant(now + wait - milliseconds(1)));
    now += wait;
    grant = table.next_grant(now);
    ASSERT_TRUE(grant) << "after waiting " << wait.count() << "ms";
  }
  EXPECT_EQ(grant->attempt, 5u);
}

TEST_F(LeaseTableTest, NextOpenAtIsTheEarliestBackoffEnd) {
  LeaseTable table(options(60, 30));
  // Fresh open leases are grantable from the start.
  ASSERT_TRUE(table.next_open_at());
  EXPECT_LE(*table.next_open_at(), t0_);
  const auto a = table.next_grant(t0_);
  const auto b = table.next_grant(t0_);
  ASSERT_TRUE(a && b);
  EXPECT_FALSE(table.next_open_at());  // nothing open
  table.release(1, t0_ + milliseconds(50));  // backs off 100 ms
  table.release(0, t0_ + milliseconds(20));
  ASSERT_TRUE(table.next_open_at());
  EXPECT_EQ(*table.next_open_at(), t0_ + milliseconds(120));
  ASSERT_TRUE(table.next_grant(t0_ + milliseconds(120)));
  EXPECT_EQ(*table.next_open_at(), t0_ + milliseconds(150));
  EXPECT_EQ(table.commit(1, 1, 0x1, 30),
            LeaseTable::CommitOutcome::kCommitted);
  EXPECT_FALSE(table.next_open_at());
}

TEST_F(LeaseTableTest, LateCommitAfterExpiryStillCommits) {
  // The acceptance rule: lease expiry racing completion resolves in
  // favor of the work — the late result is bit-exact by determinism.
  LeaseTable table(options(30, 30));
  const auto first = table.next_grant(t0_);
  ASSERT_TRUE(first);
  ASSERT_EQ(table.expire_stale(t0_ + milliseconds(6000)).size(), 1u);
  EXPECT_EQ(table.commit(0, 1, 0x777, 30),
            LeaseTable::CommitOutcome::kCommitted);
  EXPECT_TRUE(table.all_committed());
  // The re-issued attempt's duplicate result coalesces.
  EXPECT_EQ(table.commit(0, 2, 0x777, 30),
            LeaseTable::CommitOutcome::kCoalesced);
  // committed_journals points at the attempt that actually committed.
  EXPECT_EQ(table.committed_journals().front(), table.journal_path(0, 1));
}

TEST_F(LeaseTableTest, ResumeRecoversCommittedAndReissuesOpen) {
  auto opt = options(90, 30);
  {
    LeaseTable table(opt);
    auto a = table.next_grant(t0_);
    auto b = table.next_grant(t0_);
    ASSERT_TRUE(a && b);
    ASSERT_EQ(table.commit(a->lease, a->attempt, 0x1a, 30),
              LeaseTable::CommitOutcome::kCommitted);
    // b granted but never completed; lease 2 never granted. Simulated
    // SIGKILL: drop the table without any shutdown protocol.
  }
  opt.resume = true;
  LeaseTable table(opt);
  EXPECT_EQ(table.committed_count(), 1u);
  EXPECT_EQ(table.audit().replayed, 1u);
  // Replayed grants stay open (the worker died with the coordinator):
  // both the granted-uncommitted lease and the never-granted one come
  // back, with the attempt counter continuing, not restarting.
  const auto first = table.next_grant(t0_);
  const auto second = table.next_grant(t0_);
  ASSERT_TRUE(first && second);
  EXPECT_FALSE(table.next_grant(t0_).has_value());
  const bool reissued_b =
      (first->lease == 1 && first->attempt == 2) ||
      (second->lease == 1 && second->attempt == 2);
  EXPECT_TRUE(reissued_b);
  // Completing the remaining two reaches all-committed with the
  // replayed digest intact.
  EXPECT_EQ(table.commit(1, 2, 0x1b, 30),
            LeaseTable::CommitOutcome::kCommitted);
  EXPECT_EQ(table.commit(2, 1, 0x1c, 30),
            LeaseTable::CommitOutcome::kCommitted);
  EXPECT_TRUE(table.all_committed());
  EXPECT_EQ(table.commit(0, 1, 0x1a, 30),
            LeaseTable::CommitOutcome::kCoalesced);
  EXPECT_EQ(table.commit(0, 1, 0xbad, 30),
            LeaseTable::CommitOutcome::kConflict);
}

TEST_F(LeaseTableTest, ResumeRejectsForeignFingerprint) {
  auto opt = options();
  { LeaseTable table(opt); }
  opt.resume = true;
  opt.fingerprint = 0xdead;
  EXPECT_THROW(LeaseTable{opt}, std::runtime_error);
}

TEST_F(LeaseTableTest, ResumeRejectsMismatchedRanges) {
  auto opt = options(100, 30);
  {
    LeaseTable table(opt);
    const auto grant = table.next_grant(t0_);
    ASSERT_TRUE(grant);
  }
  // Same fingerprint, different slicing: the logged grant ranges no
  // longer line up with the configured leases.
  opt.resume = true;
  opt.lease_cells = 50;
  EXPECT_THROW(LeaseTable{opt}, std::runtime_error);
}

TEST_F(LeaseTableTest, FreshStartWithoutResumeDiscardsOldLog) {
  auto opt = options(30, 30);
  {
    LeaseTable table(opt);
    const auto grant = table.next_grant(t0_);
    ASSERT_TRUE(grant);
    ASSERT_EQ(table.commit(0, 1, 0x1, 30),
              LeaseTable::CommitOutcome::kCommitted);
  }
  LeaseTable table(opt);  // resume=false: start over
  EXPECT_EQ(table.committed_count(), 0u);
  EXPECT_TRUE(table.next_grant(t0_).has_value());
}

}  // namespace
}  // namespace vds::fabric
