// Unit coverage for the record/replay primitives: digest determinism
// (the property replay detection rests on), log discipline, and the
// replayer's verified-state advancement rules.

#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "replay/replay_core.hpp"

namespace {

using vds::replay::RecordLog;
using vds::replay::Replayer;
using vds::replay::round_input;
using vds::replay::round_outcome;
using vds::replay::RoundRecord;
using vds::replay::WindowVerdict;

std::vector<RoundRecord> record_rounds(std::uint64_t& state,
                                       std::uint64_t from,
                                       std::uint64_t count) {
  std::vector<RoundRecord> out;
  for (std::uint64_t i = from; i < from + count; ++i) {
    const std::uint64_t input = round_input(1, i);
    state = round_outcome(state, i, input);
    out.push_back({i, input, state});
  }
  return out;
}

TEST(ReplayCore, RoundOutcomeIsDeterministic) {
  EXPECT_EQ(round_outcome(1, 2, 3), round_outcome(1, 2, 3));
  EXPECT_EQ(round_input(7, 9), round_input(7, 9));
}

TEST(ReplayCore, RoundOutcomeSeparatesInputs) {
  // Any single-argument change must move the digest, else a corrupted
  // round could masquerade as the clean one.
  const std::uint64_t base = round_outcome(1, 2, 3);
  EXPECT_NE(base, round_outcome(2, 2, 3));
  EXPECT_NE(base, round_outcome(1, 3, 3));
  EXPECT_NE(base, round_outcome(1, 2, 4));
}

TEST(RecordLogTest, AppendsAndTakesInOrder) {
  RecordLog log;
  std::uint64_t state = 42;
  for (const RoundRecord& rec : record_rounds(state, 0, 5)) log.append(rec);
  const auto window = log.take_window(4);
  ASSERT_EQ(window.size(), 4u);
  EXPECT_EQ(window.front().index, 0u);
  EXPECT_EQ(window.back().index, 3u);
  const auto rest = log.take_window(4);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest.front().index, 4u);
}

TEST(RecordLogTest, TakeWindowClampsToPending) {
  RecordLog log;
  std::uint64_t state = 42;
  for (const RoundRecord& rec : record_rounds(state, 0, 3)) log.append(rec);
  EXPECT_EQ(log.take_window(8).size(), 3u);
  EXPECT_TRUE(log.take_window(8).empty());
}

TEST(RecordLogTest, RejectsNonMonotonicIndex) {
  RecordLog log;
  log.append({0, 1, 2});
  EXPECT_THROW(log.append({2, 1, 2}), std::logic_error);
  EXPECT_THROW(log.append({0, 1, 2}), std::logic_error);
}

TEST(RecordLogTest, RewindRestartsNumbering) {
  RecordLog log;
  std::uint64_t state = 42;
  for (const RoundRecord& rec : record_rounds(state, 0, 4)) log.append(rec);
  log.rewind_to(2);
  EXPECT_EQ(log.next_index(), 2u);
  log.append({2, 9, 9});
  const auto window = log.take_window(8);
  ASSERT_EQ(window.size(), 1u);
  EXPECT_EQ(window.front().index, 2u);
}

TEST(ReplayerTest, CleanWindowMatchesAndAdvancesState) {
  std::uint64_t state = 42;
  const auto window = record_rounds(state, 0, 6);
  Replayer replayer(42);
  const WindowVerdict verdict = replayer.replay(window);
  EXPECT_TRUE(verdict.match);
  EXPECT_EQ(verdict.rounds, 6u);
  EXPECT_EQ(replayer.state(), state);
}

TEST(ReplayerTest, CorruptionIsDetectedAndStateHeld) {
  std::uint64_t state = 42;
  auto window = record_rounds(state, 0, 6);
  window[3].outcome_digest ^= 0x40;  // fault struck the primary in round 3
  Replayer replayer(42);
  const WindowVerdict verdict = replayer.replay(window);
  EXPECT_FALSE(verdict.match);
  EXPECT_EQ(verdict.first_mismatch, 3u);
  // The trusted state must not advance past an unverified window.
  EXPECT_EQ(replayer.state(), 42u);
}

TEST(ReplayerTest, ReplaySideCorruptionIsDetected) {
  std::uint64_t state = 42;
  const auto window = record_rounds(state, 0, 4);
  Replayer replayer(42);
  const WindowVerdict verdict = replayer.replay(window, /*corrupt_xor=*/0x8);
  EXPECT_FALSE(verdict.match);
  EXPECT_EQ(verdict.first_mismatch, 0u);
}

TEST(ReplayerTest, ResetRestoresCheckpointState) {
  std::uint64_t state = 42;
  const auto window = record_rounds(state, 0, 4);
  Replayer replayer(42);
  ASSERT_TRUE(replayer.replay(window).match);
  replayer.reset(42);
  EXPECT_EQ(replayer.state(), 42u);
  // After the reset the same window verifies again from scratch.
  EXPECT_TRUE(replayer.replay(window).match);
}

TEST(ReplayerTest, EmptyWindowIsAMatch) {
  Replayer replayer(42);
  const WindowVerdict verdict = replayer.replay({});
  EXPECT_TRUE(verdict.match);
  EXPECT_EQ(verdict.rounds, 0u);
  EXPECT_EQ(replayer.state(), 42u);
}

}  // namespace
