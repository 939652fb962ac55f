#include "checkpoint/store.hpp"

#include <gtest/gtest.h>

namespace vds::checkpoint {
namespace {

VersionState state_at(std::uint64_t rounds) {
  VersionState state(123, 8);
  for (std::uint64_t r = 1; r <= rounds; ++r) state.advance_round(r);
  return state;
}

TEST(CheckpointStore, EmptyHasNoLatest) {
  CheckpointStore store;
  EXPECT_FALSE(store.latest().has_value());
}

TEST(CheckpointStore, SaveAndRestore) {
  CheckpointStore store;
  const VersionState s20 = state_at(20);
  store.save(20, s20, 5.0);
  const auto& checkpoint = store.latest();
  ASSERT_TRUE(checkpoint.has_value());
  EXPECT_EQ(checkpoint->round, 20u);
  EXPECT_TRUE(checkpoint->state.equals(s20));
  EXPECT_DOUBLE_EQ(checkpoint->saved_at, 5.0);
}

TEST(CheckpointStore, LatestIsMostRecent) {
  CheckpointStore store;
  store.save(20, state_at(20), 1.0);
  store.save(40, state_at(40), 2.0);
  EXPECT_EQ(store.latest()->round, 40u);
}

TEST(CheckpointStore, KeepLastTrimsHistory) {
  // The store keeps only the last checkpoint: a later save replaces it.
  CheckpointStore store;
  VersionState dirty = state_at(3);
  dirty.flip_bit(0, 9);
  store.save(3, dirty, 1.0);
  for (std::uint64_t r = 4; r <= 5; ++r) store.save(r, state_at(r), r * 1.0);
  const auto& checkpoint = store.latest();
  ASSERT_TRUE(checkpoint.has_value());
  EXPECT_EQ(checkpoint->round, 5u);
  EXPECT_DOUBLE_EQ(checkpoint->saved_at, 5.0);
  EXPECT_TRUE(checkpoint->state.equals(state_at(5)));
  EXPECT_EQ(checkpoint->state.digest(), state_at(5).digest());
}

TEST(CheckpointStore, DirtySaveIsACopyOfTheCallersState) {
  VersionState state = state_at(30);
  state.flip_bit(3, 41);
  ASSERT_FALSE(state.clean());
  const std::vector<std::uint64_t> saved_words = state.data();
  const std::uint64_t saved_digest = state.digest();

  CheckpointStore store;
  store.save(30, state, 0.0);
  state.flip_bit(5, 7);
  state.advance_round(31);

  const VersionState& restored = store.latest()->state;
  EXPECT_EQ(restored.data(), saved_words);
  EXPECT_EQ(restored.digest(), saved_digest);
  EXPECT_FALSE(restored.equals(state));
}

TEST(CheckpointStore, WriteLatencyReturnedAndAccumulated) {
  CheckpointStore store(/*write_latency=*/0.7);
  EXPECT_DOUBLE_EQ(store.save(20, state_at(20), 0.0), 0.7);
}

TEST(CleanCheckpoint, CleanRestoreIsTheGoldenState) {
  CheckpointStore store;
  store.save(65, VersionState::golden(123, 8, 65), 0.0);
  EXPECT_TRUE(store.latest()->state.equals(state_at(65)));
  EXPECT_EQ(store.latest()->state.digest(), state_at(65).digest());
}

}  // namespace
}  // namespace vds::checkpoint
