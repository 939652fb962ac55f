// Concurrent appends to one journal: appends take no lock, so every
// record must still land whole (one write per record on an append-mode
// descriptor) and a poisoned journal must refuse every writer.

#include "runtime/journal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace vds::runtime {
namespace {

constexpr int kThreads = 8;
constexpr std::uint64_t kPerThread = 2000;
constexpr std::uint64_t kFingerprint = 0x5eed0f00dull;

/// Record `index` of the mixed stream: cells, stop records and lease
/// events in turn, each with doubles that only survive a bitwise
/// round trip (negative zero, subnormals, hex fractions).
JournalRecord mixed_record(std::uint64_t index) {
  JournalRecord record;
  record.index = index;
  switch (index % 3) {
    case 0:
      record.outcome = static_cast<int>(index % 4);
      record.detection_latency =
          index % 7 == 0 ? -1.0 : 0.1 * static_cast<double>(index);
      record.recovery_time = index % 5 == 0 ? -0.0 : 1.0 / 3.0;
      record.total_time = 1e3 + static_cast<double>(index) * 5e-324;
      record.rounds_committed = 60 + index % 11;
      break;
    case 1:
      record.stop = true;
      record.stop_after = index % 97 + 1;
      record.achieved_ci = 1.0 / static_cast<double>(index + 3);
      break;
    default:
      record.lease = true;
      record.lease_event = static_cast<LeaseEvent>((index / 3) % 3);
      record.lease_attempt = index % 4 + 1;
      record.lease_lo = index * 16;
      record.lease_hi = index * 16 + 16;
      if (record.lease_event == LeaseEvent::kCompleted) {
        record.lease_digest = 0x9e3779b97f4a7c15ull * (index + 1);
        record.lease_cells = 16;
      }
      break;
  }
  return record;
}

/// Field-by-field equality with doubles compared by bit pattern.
bool bitwise_equal(const JournalRecord& a, const JournalRecord& b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  return a.index == b.index && a.outcome == b.outcome &&
         bits(a.detection_latency) == bits(b.detection_latency) &&
         bits(a.recovery_time) == bits(b.recovery_time) &&
         bits(a.total_time) == bits(b.total_time) &&
         a.rounds_committed == b.rounds_committed && a.stop == b.stop &&
         a.stop_after == b.stop_after &&
         bits(a.achieved_ci) == bits(b.achieved_ci) && a.lease == b.lease &&
         a.lease_event == b.lease_event &&
         a.lease_attempt == b.lease_attempt && a.lease_lo == b.lease_lo &&
         a.lease_hi == b.lease_hi && a.lease_digest == b.lease_digest &&
         a.lease_cells == b.lease_cells;
}

class JournalConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("vds_journal_concurrency_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name()) +
              ".journal"))
                .string();
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(JournalConcurrencyTest, EveryRecordLandsExactlyOnceAndWhole) {
  {
    Journal journal(path_, kFingerprint);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&journal, t] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          journal.append(mixed_record(static_cast<std::uint64_t>(t) *
                                          kPerThread +
                                      i));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const JournalLoad load = Journal::load(path_, kFingerprint);
  EXPECT_EQ(load.version, 3);
  EXPECT_EQ(load.corrupt, 0u);
  std::vector<JournalRecord> all = load.records;
  all.insert(all.end(), load.stops.begin(), load.stops.end());
  all.insert(all.end(), load.leases.begin(), load.leases.end());
  std::sort(all.begin(), all.end(),
            [](const JournalRecord& a, const JournalRecord& b) {
              return a.index < b.index;
            });
  ASSERT_EQ(all.size(), kThreads * kPerThread);
  for (std::uint64_t i = 0; i < all.size(); ++i) {
    ASSERT_TRUE(bitwise_equal(all[i], mixed_record(i))) << "record " << i;
  }
}

TEST(JournalConcurrency, PoisonedJournalRefusesEveryWriter) {
  // /dev/full fails every write with ENOSPC: no append from any thread
  // may report success, and the journal ends up poisoned.
  std::FILE* stream = std::fopen("/dev/full", "w");
  if (stream == nullptr) GTEST_SKIP() << "/dev/full not available";
  Journal journal(stream, "/dev/full");
  constexpr int kWriters = 4;
  constexpr int kAppends = 500;
  std::atomic<int> succeeded{0};
  std::atomic<int> threw{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kAppends; ++i) {
        try {
          journal.append(mixed_record(static_cast<std::uint64_t>(t) *
                                          kAppends +
                                      static_cast<std::uint64_t>(i)));
          succeeded.fetch_add(1);
        } catch (const std::runtime_error&) {
          threw.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(succeeded.load(), 0);
  EXPECT_EQ(threw.load(), kWriters * kAppends);
}

}  // namespace
}  // namespace vds::runtime
