// Lease (fabric assignment-log) records in the journal layer:
// round-trips, resume-reader routing, and merge passthrough.

#include "runtime/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

namespace vds::runtime {
namespace {

class JournalLeaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto dir = std::filesystem::temp_directory_path();
    const std::string stem = "vds_journal_lease_" +
                             std::string(::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name());
    path_ = (dir / (stem + ".journal")).string();
    other_ = (dir / (stem + "_other.journal")).string();
    merged_ = (dir / (stem + "_merged.journal")).string();
    std::remove(path_.c_str());
    std::remove(other_.c_str());
    std::remove(merged_.c_str());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(other_.c_str());
    std::remove(merged_.c_str());
  }

  std::string path_;
  std::string other_;
  std::string merged_;
};

JournalRecord lease_record(LeaseEvent event, std::uint64_t id,
                           std::uint64_t attempt) {
  JournalRecord record;
  record.lease = true;
  record.lease_event = event;
  record.index = id;
  record.lease_attempt = attempt;
  record.lease_lo = id * 1000;
  record.lease_hi = id * 1000 + 1000;
  if (event == LeaseEvent::kCompleted) {
    record.lease_digest = 0xdeadbeefcafef00dull + id;
    record.lease_cells = 1000 - id;
  }
  return record;
}

JournalRecord cell_record(std::uint64_t index) {
  JournalRecord record;
  record.index = index;
  record.outcome = 2;
  record.detection_latency = 0.25;
  record.recovery_time = 1.5;
  record.total_time = 84.1;
  record.rounds_committed = 60;
  return record;
}

void expect_lease_equal(const JournalRecord& got, const JournalRecord& want) {
  EXPECT_TRUE(got.lease);
  EXPECT_EQ(got.lease_event, want.lease_event);
  EXPECT_EQ(got.index, want.index);
  EXPECT_EQ(got.lease_attempt, want.lease_attempt);
  EXPECT_EQ(got.lease_lo, want.lease_lo);
  EXPECT_EQ(got.lease_hi, want.lease_hi);
  if (want.lease_event == LeaseEvent::kCompleted) {
    EXPECT_EQ(got.lease_digest, want.lease_digest);
    EXPECT_EQ(got.lease_cells, want.lease_cells);
  }
}

TEST_F(JournalLeaseTest, RoundTripsAllThreeEvents) {
  const std::vector<JournalRecord> events = {
      lease_record(LeaseEvent::kGranted, 0, 1),
      lease_record(LeaseEvent::kExpired, 0, 1),
      lease_record(LeaseEvent::kGranted, 0, 2),
      lease_record(LeaseEvent::kCompleted, 0, 2),
      lease_record(LeaseEvent::kCompleted, 7, 1),
  };
  {
    Journal journal(path_, /*fingerprint=*/42);
    for (const JournalRecord& record : events) journal.append(record);
  }
  const JournalLoad loaded = Journal::load(path_, 42);
  EXPECT_EQ(loaded.corrupt, 0u);
  EXPECT_TRUE(loaded.records.empty());  // lease events are not cells
  ASSERT_EQ(loaded.leases.size(), events.size());
  for (std::size_t k = 0; k < events.size(); ++k) {
    expect_lease_equal(loaded.leases[k], events[k]);
  }
}

TEST_F(JournalLeaseTest, LeaseAndCellRecordsCoexist) {
  {
    Journal journal(path_, 7);
    journal.append(lease_record(LeaseEvent::kGranted, 1, 1));
    journal.append(cell_record(1234));
    journal.append(lease_record(LeaseEvent::kCompleted, 1, 1));
  }
  const JournalLoad loaded = Journal::load(path_, 7);
  ASSERT_EQ(loaded.records.size(), 1u);
  EXPECT_EQ(loaded.records[0].index, 1234u);
  ASSERT_EQ(loaded.leases.size(), 2u);
  EXPECT_EQ(loaded.leases[0].lease_event, LeaseEvent::kGranted);
  EXPECT_EQ(loaded.leases[1].lease_event, LeaseEvent::kCompleted);
}

TEST_F(JournalLeaseTest, MergeCopiesLeaseEventsThroughInInputOrder) {
  {
    Journal a(path_, 9);
    a.append(cell_record(1));
    a.append(lease_record(LeaseEvent::kGranted, 0, 1));
    a.append(lease_record(LeaseEvent::kCompleted, 0, 1));
  }
  {
    Journal b(other_, 9);
    b.append(cell_record(2));
    // Identical grant event in the second shard: lease events are
    // history, not state — they must never be coalesced away.
    b.append(lease_record(LeaseEvent::kGranted, 0, 1));
  }
  const JournalMergeStats stats =
      merge_journals({path_, other_}, merged_);
  EXPECT_EQ(stats.records_out, 5u);
  const JournalLoad loaded = Journal::load(merged_, 9);
  EXPECT_EQ(loaded.records.size(), 2u);
  ASSERT_EQ(loaded.leases.size(), 3u);
  EXPECT_EQ(loaded.leases[0].lease_event, LeaseEvent::kGranted);
  EXPECT_EQ(loaded.leases[1].lease_event, LeaseEvent::kCompleted);
  EXPECT_EQ(loaded.leases[2].lease_event, LeaseEvent::kGranted);
}

TEST_F(JournalLeaseTest, TruncatedLeasePayloadCountsCorrupt) {
  {
    Journal journal(path_, 5);
    journal.append(lease_record(LeaseEvent::kGranted, 1, 1));
    journal.append(lease_record(LeaseEvent::kCompleted, 1, 1));
  }
  // Chop the tail off the last record; the reader must drop it and
  // keep the intact one.
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 5);
  const JournalLoad loaded = Journal::load(path_, 5);
  EXPECT_EQ(loaded.leases.size(), 1u);
  EXPECT_GE(loaded.corrupt, 1u);
}

}  // namespace
}  // namespace vds::runtime
