#include "runtime/journal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "core/campaign.hpp"
#include "core/options.hpp"
#include "core/report.hpp"
#include "runtime/chaos.hpp"
#include "runtime/mc_campaign.hpp"

namespace vds::runtime {
namespace {

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("vds_journal_test_" +
              std::to_string(::testing::UnitTest::GetInstance()
                                 ->random_seed()) +
              "_" + ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name() +
              ".journal"))
                .string();
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

JournalRecord sample_record(std::uint64_t index) {
  JournalRecord record;
  record.index = index;
  record.outcome = 1;
  record.detection_latency = 0.1 * static_cast<double>(index) + 0.3;
  record.recovery_time = 1.0 / 3.0;
  record.total_time = 1e3 + 1e-9;
  record.rounds_committed = 60;
  return record;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// One v3 record frame around `payload`: marker, payload length,
/// payload, CRC32C (little-endian), '\n'.
std::string v3_frame(const std::string& payload) {
  const std::uint32_t crc = crc32c(payload.data(), payload.size());
  std::string frame = {'\xA5', static_cast<char>(payload.size())};
  frame += payload;
  for (int k = 0; k < 4; ++k) frame += static_cast<char>(crc >> (8 * k));
  return frame + '\n';
}

TEST_F(JournalTest, MissingFileLoadsEmpty) {
  const JournalLoad load = Journal::load(path_, 1);
  EXPECT_TRUE(load.records.empty());
  EXPECT_EQ(load.corrupt, 0u);
}

TEST(Crc32c, KnownAnswerAndChaining) {
  // RFC 3720 check value for the Castagnoli polynomial.
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c(""), 0u);
  // Incremental feeding must match the one-shot digest.
  const std::uint32_t head = crc32c("12345");
  EXPECT_EQ(crc32c("6789", head), crc32c("123456789"));
  EXPECT_NE(crc32c("123456789"), crc32c("123456789 "));
}

JournalRecord awkward_record() {
  JournalRecord record;
  record.index = 2;
  record.outcome = 4;
  record.detection_latency = -1.0;
  record.recovery_time = 5e-324;  // denormal min
  record.total_time = 1.7976931348623157e308;
  record.rounds_committed = 0;
  return record;
}

TEST_F(JournalTest, RoundTripIsBitwiseExact) {
  // Default format is the v3 binary encoding.
  const std::uint64_t fp = 0xabcdef12345678ull;
  {
    Journal journal(path_, fp);
    journal.append(sample_record(0));
    journal.append(sample_record(7));
    journal.append(awkward_record());
  }
  const JournalLoad load = Journal::load(path_, fp);
  EXPECT_EQ(load.version, 3);
  EXPECT_EQ(load.corrupt, 0u);
  const auto& records = load.records;
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], sample_record(0));
  EXPECT_EQ(records[1], sample_record(7));
  EXPECT_EQ(records[2].recovery_time, 5e-324);
  EXPECT_EQ(records[2].total_time, 1.7976931348623157e308);
}

TEST_F(JournalTest, V3NegativeZeroSurvivesBitwise) {
  // v3 elides the detection-latency field when its bits equal -1.0
  // and the recovery field when its bits equal +0.0; the comparisons
  // are on bit patterns, so -0.0 (== 0.0 numerically) must still be
  // stored and restored with its sign bit.
  const std::uint64_t fp = 11;
  JournalRecord record = sample_record(0);
  record.recovery_time = -0.0;
  {
    Journal journal(path_, fp);
    journal.append(record);
  }
  const JournalLoad load = Journal::load(path_, fp);
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_TRUE(std::signbit(load.records[0].recovery_time));
}

TEST_F(JournalTest, AppendAcrossReopens) {
  const std::uint64_t fp = 9;
  {
    Journal journal(path_, fp);
    journal.append(sample_record(0));
  }
  {
    Journal journal(path_, fp);  // reopen appends, no duplicate header
    journal.append(sample_record(1));
  }
  const auto records = Journal::load(path_, fp).records;
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].index, 0u);
  EXPECT_EQ(records[1].index, 1u);
}

TEST_F(JournalTest, RejectsWrongFingerprintWithActionableMessage) {
  {
    Journal journal(path_, 0xdeadbeefull);
    journal.append(sample_record(0));
  }
  try {
    (void)Journal::load(path_, 0x1234ull);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    // The message must let the user act without opening the file:
    // which journal, both fingerprints, and what to do next.
    EXPECT_NE(what.find(path_), std::string::npos) << what;
    EXPECT_NE(what.find("00000000deadbeef"), std::string::npos) << what;
    EXPECT_NE(what.find("0000000000001234"), std::string::npos) << what;
    EXPECT_NE(what.find("--resume"), std::string::npos) << what;
  }
}

TEST_F(JournalTest, RejectsForeignFile) {
  {
    std::ofstream out(path_);
    out << "not a journal\n";
  }
  EXPECT_THROW(Journal::load(path_, 1), std::runtime_error);
}

TEST_F(JournalTest, AppendToFailingStreamThrowsAndPoisons) {
  // /dev/full accepts the open but fails every flush with ENOSPC --
  // the "disk filled mid-campaign" case. A dropped record must not
  // look like success, and later appends must not write past the
  // failure point.
  std::FILE* stream = std::fopen("/dev/full", "w");
  if (stream == nullptr) GTEST_SKIP() << "/dev/full not available";
  Journal journal(stream, "/dev/full");
  EXPECT_THROW(journal.append(sample_record(0)), std::runtime_error);
  EXPECT_THROW(journal.append(sample_record(1)), std::runtime_error);
}

TEST_F(JournalTest, BlockToFailingStreamThrowsAndPoisons) {
  // A block is one write(2): on a full disk the whole block fails, the
  // journal is poisoned, and neither a later block nor a single record
  // is written past the failure point.
  std::FILE* stream = std::fopen("/dev/full", "w");
  if (stream == nullptr) GTEST_SKIP() << "/dev/full not available";
  Journal journal(stream, "/dev/full");
  const std::vector<JournalRecord> block = {sample_record(0), sample_record(1),
                                            sample_record(2)};
  EXPECT_THROW(journal.append(block), std::runtime_error);
  EXPECT_THROW(journal.append(block), std::runtime_error);
  EXPECT_THROW(journal.append(sample_record(3)), std::runtime_error);
}

TEST_F(JournalTest, ShortBlockWriteFailsTheCampaign) {
  // A file-size limit just past the header cuts the first block write
  // short. The short write must poison the journal and fail the
  // campaign; a campaign that reported success here would leave resume
  // data it never wrote.
  struct rlimit saved = {};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  constexpr rlim_t kLimit = 256;
  if (saved.rlim_cur != RLIM_INFINITY && saved.rlim_cur < kLimit) {
    GTEST_SKIP() << "file-size limit already below " << kLimit << " bytes";
  }
  McConfig config;
  config.replicas = 10;  // 4 kinds x 5 rounds x 10 = 200 cells
  config.threads = 2;
  config.journal_path = path_;
  const McRunner runner = make_smt_runner(core::VdsOptions{});

  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  struct rlimit limited = saved;
  limited.rlim_cur = kLimit;
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &limited), 0);
  std::string what;
  try {
    (void)run_mc_campaign(config, runner);
  } catch (const std::runtime_error& error) {
    what = error.what();
  }
  ::setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, old_handler);

  EXPECT_NE(what.find("journal '" + path_ + "'"), std::string::npos)
      << "campaign did not fail on the journal: '" << what << "'";
  EXPECT_LE(std::filesystem::file_size(path_), kLimit);
}

TEST_F(JournalTest, BlockLosesOnlyItsTornAndCorruptRecords) {
  // One block, one write(2), with a torn record and a bit-flipped one
  // in its middle: load loses exactly those two, resynchronizes past
  // the torn bytes, and keeps every record around them. Chaos is a
  // pure function of the record index, so the indices are chosen here
  // to make exactly one record fire each site.
  const Chaos chaos = Chaos::parse("journal.torn=0.1,journal.corrupt=0.1", 21);
  const auto torn = [&](std::uint64_t index) {
    return chaos.fires(kChaosJournalTorn, index);
  };
  const auto flipped = [&](std::uint64_t index) {
    return !torn(index) && chaos.fires(kChaosJournalCorrupt, index);
  };
  const auto clean = [&](std::uint64_t index) {
    return !torn(index) && !flipped(index);
  };
  std::uint64_t next = 0;
  const auto take = [&](const auto& wanted) {
    while (!wanted(next)) ++next;
    return next++;
  };
  std::vector<JournalRecord> block;
  std::vector<JournalRecord> kept;
  for (int slot = 0; slot < 16; ++slot) {
    const std::uint64_t index =
        slot == 5 ? take(torn) : slot == 10 ? take(flipped) : take(clean);
    block.push_back(sample_record(index));
    if (slot != 5 && slot != 10) kept.push_back(block.back());
  }
  {
    Journal journal(path_, 21);
    journal.arm_chaos(&chaos);
    journal.append(block);
  }
  const JournalLoad load = Journal::load(path_, 21);
  EXPECT_EQ(load.corrupt, 2u);
  EXPECT_EQ(load.records, kept);
}

TEST_F(JournalTest, HeaderWriteFailureThrowsFromConstructor) {
  if (std::FILE* probe = std::fopen("/dev/full", "a")) {
    std::fclose(probe);
  } else {
    GTEST_SKIP() << "/dev/full not available";
  }
  EXPECT_THROW(Journal("/dev/full", 1), std::runtime_error);
}

TEST_F(JournalTest, TornFinalLineIsCountedCorrupt) {
  std::uintmax_t first_end = 0;
  {
    Journal journal(path_, 3);
    journal.append(sample_record(0));
    first_end = std::filesystem::file_size(path_);
    journal.append(sample_record(1));
  }
  // Simulate a kill mid-write: half of one more record, no newline.
  std::string bytes = read_bytes(path_);
  bytes += bytes.substr(first_end, (bytes.size() - first_end) / 2);
  write_bytes(path_, bytes);
  const JournalLoad load = Journal::load(path_, 3);
  ASSERT_EQ(load.records.size(), 2u);
  EXPECT_EQ(load.records[1].index, 1u);
  EXPECT_EQ(load.corrupt, 1u);
}

TEST_F(JournalTest, BitFlippedRecordIsSkippedAndCounted) {
  {
    Journal journal(path_, 5);
    journal.append(sample_record(0));
    journal.append(sample_record(1));
    journal.append(sample_record(2));
  }
  // Flip one bit inside the middle record's body; its CRC no longer
  // matches, so only that record may be dropped.
  std::string text;
  {
    std::ifstream in(path_, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  std::size_t line_start = text.find('\n') + 1;      // skip header
  line_start = text.find('\n', line_start) + 1;      // skip record 0
  text[line_start + 8] ^= 0x01;
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << text;
  }
  const JournalLoad load = Journal::load(path_, 5);
  EXPECT_EQ(load.corrupt, 1u);
  ASSERT_EQ(load.records.size(), 2u);
  EXPECT_EQ(load.records[0].index, 0u);
  EXPECT_EQ(load.records[1].index, 2u);
}

TEST_F(JournalTest, TruncatedTailLosesOnlyTheLastRecord) {
  {
    Journal journal(path_, 6);
    journal.append(sample_record(0));
    journal.append(sample_record(1));
    journal.append(sample_record(2));
  }
  std::string text;
  {
    std::ifstream in(path_, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Chop the file mid-way through the final record.
  std::filesystem::resize_file(path_, text.size() - 10);
  const JournalLoad load = Journal::load(path_, 6);
  EXPECT_EQ(load.corrupt, 1u);
  ASSERT_EQ(load.records.size(), 2u);
  EXPECT_EQ(load.records[1].index, 1u);
}

TEST_F(JournalTest, ChecksummedGarbageBodyIsCounted) {
  {
    Journal journal(path_, 7);
    journal.append(sample_record(0));
  }
  {
    // A well-framed record whose CRC matches but whose payload is not
    // a record (unknown flag bits): the checksum alone must not be a
    // free pass into the record list.
    std::ofstream out(path_, std::ios::app | std::ios::binary);
    out << v3_frame(std::string("\x80\x00\x00\x00\x00\x00", 6));
  }
  const JournalLoad load = Journal::load(path_, 7);
  EXPECT_EQ(load.corrupt, 1u);
  ASSERT_EQ(load.records.size(), 1u);
}

TEST_F(JournalTest, TextJournalIsRefusedAndLeftUnchanged) {
  // A text journal from a build that still wrote the v2 encoding: every
  // entry point refuses it by path, and nothing is appended to it.
  const std::string text =
      "vds-mc-journal v2 fingerprint 0000000000000009\n"
      "cell 0 1 0x1p+0 0x1p+0 0x1p+0 60 #00000000\n";
  write_bytes(path_, text);
  const auto expect_refused = [&](const auto& open) {
    try {
      open();
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(path_), std::string::npos) << what;
      EXPECT_NE(what.find("unrecognized header"), std::string::npos) << what;
    }
  };
  expect_refused([&] { (void)Journal::load(path_, 9); });
  expect_refused([&] { (void)Journal::inspect(path_); });
  expect_refused([&] { Journal journal(path_, 9); });
  EXPECT_EQ(read_bytes(path_), text);
}

TEST_F(JournalTest, V3AdjacentDamagedRecordsEachCount) {
  // Two neighbouring records with flipped bits are two discarded
  // results, not one corruption episode: --resume re-executes both
  // cells, so the corrupt count must say two.
  {
    Journal journal(path_, 14);
    for (std::uint64_t i = 0; i < 4; ++i) journal.append(sample_record(i));
  }
  std::string text;
  {
    std::ifstream in(path_, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  std::size_t start = text.find('\n') + 1;     // skip v3 header
  start = text.find('\n', start) + 1;          // skip record 0
  text[start + 8] ^= 0x04;                     // flip inside record 1
  const std::size_t next = text.find('\n', start) + 1;
  text[next + 8] ^= 0x04;                      // flip inside record 2
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << text;
  }
  const JournalLoad load = Journal::load(path_, 14);
  EXPECT_EQ(load.corrupt, 2u);
  ASSERT_EQ(load.records.size(), 2u);
  EXPECT_EQ(load.records[0].index, 0u);
  EXPECT_EQ(load.records[1].index, 3u);
}

TEST_F(JournalTest, V3GarbageSpliceResynchronizes) {
  // A blob of garbage bytes between intact records is one corruption
  // episode; the scan must find the next real record behind it even
  // when the garbage contains marker-lookalike bytes.
  {
    Journal journal(path_, 15);
    journal.append(sample_record(0));
  }
  {
    std::ofstream out(path_, std::ios::app | std::ios::binary);
    for (int i = 0; i < 64; ++i) out.put(static_cast<char>(i * 37));
  }
  {
    Journal journal(path_, 15);
    journal.append(sample_record(5));
  }
  const JournalLoad load = Journal::load(path_, 15);
  EXPECT_GE(load.corrupt, 1u);
  ASSERT_EQ(load.records.size(), 2u);
  EXPECT_EQ(load.records[0].index, 0u);
  EXPECT_EQ(load.records[1].index, 5u);
}

TEST_F(JournalTest, InspectReportsHeaderWithoutFingerprintCheck) {
  {
    Journal journal(path_, 0xfeedull);
    journal.append(sample_record(0));
  }
  const JournalLoad load = Journal::inspect(path_);
  EXPECT_TRUE(load.has_header);
  EXPECT_EQ(load.version, 3);
  EXPECT_EQ(load.fingerprint, 0xfeedull);
  EXPECT_EQ(load.records.size(), 1u);

  const JournalLoad missing = Journal::inspect(path_ + ".absent");
  EXPECT_FALSE(missing.has_header);
  EXPECT_TRUE(missing.records.empty());
}

JournalRecord stop_record(std::uint64_t stratum, std::uint64_t after,
                          double ci) {
  JournalRecord record;
  record.stop = true;
  record.index = stratum;
  record.stop_after = after;
  record.achieved_ci = ci;
  return record;
}

TEST_F(JournalTest, StopRecordsRoundTripV3) {
  {
    Journal journal(path_, 31);
    journal.append(sample_record(0));
    journal.append(stop_record(2, 40, 0x1.91eb851eb851fp-5));
    journal.append(sample_record(1));
  }
  const JournalLoad load = Journal::load(path_, 31);
  EXPECT_EQ(load.corrupt, 0u);
  ASSERT_EQ(load.records.size(), 2u);  // stops are not cells
  ASSERT_EQ(load.stops.size(), 1u);
  EXPECT_EQ(load.stops[0], stop_record(2, 40, 0x1.91eb851eb851fp-5));
}

TEST_F(JournalTest, DamagedStopRecordIsCountedCorrupt) {
  std::uintmax_t stop_at = 0;
  {
    Journal journal(path_, 33);
    journal.append(sample_record(0));
    stop_at = std::filesystem::file_size(path_);
    journal.append(stop_record(3, 24, 0.05));
  }
  std::string bytes = read_bytes(path_);
  bytes[stop_at + 3] ^= 0x01;  // the stratum varint, inside the CRC
  write_bytes(path_, bytes);
  const JournalLoad load = Journal::load(path_, 33);
  EXPECT_EQ(load.corrupt, 1u);
  EXPECT_TRUE(load.stops.empty());
  ASSERT_EQ(load.records.size(), 1u);
}

class JournalMergeTest : public JournalTest {
 protected:
  std::string shard(int n) { return path_ + ".shard" + std::to_string(n); }
  std::string out() { return path_ + ".merged"; }
  void TearDown() override {
    for (int n = 0; n < 4; ++n) std::remove(shard(n).c_str());
    std::remove(out().c_str());
    JournalTest::TearDown();
  }
};

TEST_F(JournalMergeTest, DisjointShardsConcatenateSorted) {
  {
    Journal a(shard(0), 21);
    a.append(sample_record(4));
    a.append(sample_record(0));
    Journal b(shard(1), 21);
    b.append(sample_record(2));
  }
  const JournalMergeStats stats =
      merge_journals({shard(0), shard(1)}, out());
  EXPECT_EQ(stats.inputs, 2u);
  EXPECT_EQ(stats.records_in, 3u);
  EXPECT_EQ(stats.records_out, 3u);
  EXPECT_EQ(stats.duplicates, 0u);
  EXPECT_EQ(stats.fingerprint, 21u);
  const JournalLoad merged = Journal::load(out(), 21);
  ASSERT_EQ(merged.records.size(), 3u);
  EXPECT_EQ(merged.records[0].index, 0u);  // merge output is cell-sorted
  EXPECT_EQ(merged.records[1].index, 2u);
  EXPECT_EQ(merged.records[2].index, 4u);
}

TEST_F(JournalMergeTest, IdenticalDuplicatesCoalesce) {
  {
    Journal a(shard(0), 22);
    a.append(sample_record(0));
    a.append(sample_record(1));
    Journal b(shard(1), 22);
    b.append(sample_record(1));  // same cell, same deterministic result
    b.append(sample_record(2));
  }
  const JournalMergeStats stats =
      merge_journals({shard(0), shard(1)}, out());
  EXPECT_EQ(stats.records_in, 4u);
  EXPECT_EQ(stats.records_out, 3u);
  EXPECT_EQ(stats.duplicates, 1u);
}

TEST_F(JournalMergeTest, ConflictingDuplicatesRefuse) {
  {
    Journal a(shard(0), 23);
    a.append(sample_record(1));
    Journal b(shard(1), 23);
    JournalRecord conflicting = sample_record(1);
    conflicting.rounds_committed = 61;  // shards disagree
    b.append(conflicting);
  }
  try {
    merge_journals({shard(0), shard(1)}, out());
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("refusing to merge"), std::string::npos) << what;
    EXPECT_NE(what.find(shard(1)), std::string::npos) << what;
  }
}

TEST_F(JournalMergeTest, StopRecordsSurviveMergeAndCoalesce) {
  {
    Journal a(shard(0), 26);
    a.append(sample_record(0));
    a.append(stop_record(1, 16, 0.04));
    Journal b(shard(1), 26);
    b.append(sample_record(1));
    b.append(stop_record(1, 16, 0.04));  // same decision, both shards
    b.append(stop_record(4, 32, 0.02));
  }
  const JournalMergeStats stats =
      merge_journals({shard(0), shard(1)}, out());
  EXPECT_EQ(stats.duplicates, 1u);
  EXPECT_EQ(stats.records_out, 4u);  // 2 cells + 2 unique stops
  const JournalLoad merged = Journal::load(out(), 26);
  ASSERT_EQ(merged.stops.size(), 2u);
  EXPECT_EQ(merged.stops[0], stop_record(1, 16, 0.04));
  EXPECT_EQ(merged.stops[1], stop_record(4, 32, 0.02));
}

TEST_F(JournalMergeTest, ConflictingStopRecordsRefuse) {
  // Two shards deciding *different* stopping points for one stratum
  // would make the merged digest depend on merge order -- hard error.
  {
    Journal a(shard(0), 27);
    a.append(stop_record(3, 16, 0.04));
    Journal b(shard(1), 27);
    b.append(stop_record(3, 24, 0.03));
  }
  try {
    merge_journals({shard(0), shard(1)}, out());
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("stratum 3"), std::string::npos) << what;
    EXPECT_NE(what.find("conflicting stop records"), std::string::npos)
        << what;
  }
}

TEST_F(JournalMergeTest, FingerprintMismatchRefusesAndNamesBoth) {
  {
    Journal a(shard(0), 0xaaaaull);
    a.append(sample_record(0));
    Journal b(shard(1), 0xbbbbull);
    b.append(sample_record(1));
  }
  try {
    merge_journals({shard(0), shard(1)}, out());
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("000000000000aaaa"), std::string::npos) << what;
    EXPECT_NE(what.find("000000000000bbbb"), std::string::npos) << what;
  }
}

TEST_F(JournalMergeTest, CorruptRecordsAreSkippedNotMerged) {
  {
    Journal a(shard(0), 24);
    a.append(sample_record(0));
    a.append(sample_record(1));
  }
  std::string text;
  {
    std::ifstream in(shard(0), std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  text[text.find('\n') + 10] ^= 0x40;  // damage record 0
  {
    std::ofstream outf(shard(0), std::ios::binary | std::ios::trunc);
    outf << text;
  }
  const JournalMergeStats stats = merge_journals({shard(0)}, out());
  EXPECT_EQ(stats.corrupt, 1u);
  EXPECT_EQ(stats.records_out, 1u);
  const JournalLoad merged = Journal::load(out(), 24);
  ASSERT_EQ(merged.records.size(), 1u);
  EXPECT_EQ(merged.records[0].index, 1u);
}

TEST_F(JournalMergeTest, RefusesOutputAliasingAnInput) {
  {
    Journal a(shard(0), 25);
    a.append(sample_record(0));
  }
  EXPECT_THROW(merge_journals({shard(0)}, shard(0)), std::runtime_error);
}

TEST_F(JournalTest, OpenFailureNamesThePathAndReason) {
  // Appending under a missing parent directory must say which path
  // failed and why, not just "cannot open".
  const std::string bad = path_ + ".dir/nested/journal";
  try {
    Journal journal(bad, 1);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(bad), std::string::npos) << what;
    EXPECT_NE(what.find("directory"), std::string::npos) << what;
  }
}

TEST(JsonWriter, NestedStructure) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.field("name", "vds");
  json.field("count", std::uint64_t{3});
  json.field("ratio", 0.5);
  json.field("ok", true);
  json.key("list").begin_array();
  json.value(std::uint64_t{1});
  json.value(std::uint64_t{2});
  json.end_array();
  json.key("nested").begin_object();
  json.field("inner", std::int64_t{-4});
  json.end_object();
  json.end_object();

  const std::string text = out.str();
  EXPECT_NE(text.find("\"name\": \"vds\""), std::string::npos);
  EXPECT_NE(text.find("\"count\": 3"), std::string::npos);
  EXPECT_NE(text.find("\"ratio\": 0.5"), std::string::npos);
  EXPECT_NE(text.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(text.find("\"inner\": -4"), std::string::npos);
  // Commas separate members, none dangle before a closing brace.
  EXPECT_EQ(text.find(",\n}"), std::string::npos);
  EXPECT_EQ(text.find(",\n]"), std::string::npos);
  EXPECT_EQ(text.find("{,"), std::string::npos);
}

TEST(JsonWriter, EscapesStrings) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.field("text", "a\"b\\c\nd\te");
  json.end_object();
  EXPECT_NE(out.str().find("a\\\"b\\\\c\\nd\\te"), std::string::npos);
}

TEST(JsonWriter, NonFiniteDoublesEmitNull) {
  // JSON has no inf/nan literals; %.17g would print them verbatim and
  // corrupt the document for every downstream parser.
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.field("a", std::numeric_limits<double>::infinity());
  json.field("b", -std::numeric_limits<double>::infinity());
  json.field("c", std::numeric_limits<double>::quiet_NaN());
  json.field("d", 2.5);
  json.end_object();
  const std::string text = out.str();
  EXPECT_NE(text.find("\"a\": null"), std::string::npos);
  EXPECT_NE(text.find("\"b\": null"), std::string::npos);
  EXPECT_NE(text.find("\"c\": null"), std::string::npos);
  EXPECT_NE(text.find("\"d\": 2.5"), std::string::npos);
  // The invalid literals must not appear anywhere in the document.
  EXPECT_EQ(text.find("inf"), std::string::npos);
  EXPECT_EQ(text.find("nan"), std::string::npos);
}

TEST(JsonWriter, NonFiniteStatsStillParse) {
  // A report whose detection-latency accumulator is empty divides
  // 0/0 in downstream consumers; emulate the worst case by writing
  // non-finite stats and checking the document stays machine-readable
  // (balanced quotes/braces, values only null or numeric).
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.key("stats").begin_array();
  json.value(std::numeric_limits<double>::quiet_NaN());
  json.value(1.0);
  json.value(std::numeric_limits<double>::infinity());
  json.end_array();
  json.end_object();
  const std::string text = out.str();
  EXPECT_NE(text.find("null,"), std::string::npos);
  EXPECT_NE(text.find("1,"), std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));
  EXPECT_EQ(std::count(text.begin(), text.end(), '['),
            std::count(text.begin(), text.end(), ']'));
}

TEST(JsonWriter, DoublesRoundTrip) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.field("x", 0.1);
  json.end_object();
  const std::string text = out.str();
  const auto pos = text.find("\"x\": ");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_EQ(std::stod(text.substr(pos + 5)), 0.1);
}

TEST(JsonWriter, RunReportSchemaFields) {
  core::RunReport report;
  report.completed = true;
  report.rounds_committed = 60;
  report.detection_latency.add(1.5);
  std::ostringstream out;
  JsonWriter json(out);
  write_json(json, report);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"completed\": true"), std::string::npos);
  EXPECT_NE(text.find("\"rounds_committed\": 60"), std::string::npos);
  EXPECT_NE(text.find("\"detection_latency\""), std::string::npos);
}

TEST(JsonWriter, CampaignSummarySchemaFields) {
  core::CampaignSummary summary;
  summary.by_outcome[1] = 4;
  summary.injections = 4;
  std::ostringstream out;
  JsonWriter json(out);
  write_json(json, summary);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"injections\": 4"), std::string::npos);
  EXPECT_NE(text.find("\"recovered\": 4"), std::string::npos);
  EXPECT_NE(text.find("\"safety\": 1"), std::string::npos);
}

TEST(Fnv1a, StableAndSensitive) {
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
  EXPECT_NE(fnv1a("abc", 1), fnv1a("abc", 2));
}

}  // namespace
}  // namespace vds::runtime
