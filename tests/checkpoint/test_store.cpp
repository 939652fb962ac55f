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
  EXPECT_EQ(store.size(), 0u);
}

TEST(CheckpointStore, SaveAndRestore) {
  CheckpointStore store;
  const VersionState s20 = state_at(20);
  store.save(20, s20, 5.0);
  const auto checkpoint = store.latest();
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

TEST(CheckpointStore, LatestAtOrBefore) {
  CheckpointStore store({}, /*keep_last=*/0);
  store.save(20, state_at(20), 1.0);
  store.save(40, state_at(40), 2.0);
  store.save(60, state_at(60), 3.0);
  EXPECT_EQ(store.latest_at_or_before(45)->round, 40u);
  EXPECT_EQ(store.latest_at_or_before(60)->round, 60u);
  EXPECT_FALSE(store.latest_at_or_before(10).has_value());
}

TEST(CheckpointStore, KeepLastTrimsHistory) {
  CheckpointStore store({}, /*keep_last=*/2);
  for (std::uint64_t r = 1; r <= 5; ++r) store.save(r, state_at(r), 0.0);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.latest()->round, 5u);
  EXPECT_EQ(store.saves(), 5u);
}

TEST(CheckpointStore, WriteLatencyReturnedAndAccumulated) {
  CheckpointStore store({/*write=*/0.7, /*read=*/0.3});
  EXPECT_DOUBLE_EQ(store.save(20, state_at(20), 0.0), 0.7);
  EXPECT_DOUBLE_EQ(store.latency().read, 0.3);
  EXPECT_EQ(store.write_time().count(), 1u);
  EXPECT_DOUBLE_EQ(store.write_time().sum(), 0.7);
}

TEST(CheckpointStore, VerifyDetectsStorageRot) {
  CheckpointStore store;
  store.save(20, state_at(20), 0.0);
  Checkpoint checkpoint = *store.latest();
  EXPECT_TRUE(CheckpointStore::verify(checkpoint));
  checkpoint.state.flip_bit(1, 5);
  EXPECT_FALSE(CheckpointStore::verify(checkpoint));
}

// --- clean checkpoints: CRC-only saves of clean tags defer the CRC ------

TEST(CleanCheckpoint, CleanSaveDefersTheCrcAndVerifies) {
  CheckpointStore store;
  store.save(200, VersionState::golden(123, 8, 200), 0.0);
  const Checkpoint checkpoint = *store.latest();
  EXPECT_TRUE(checkpoint.deferred_crc.has_value());
  EXPECT_TRUE(CheckpointStore::verify(checkpoint));
}

TEST(CleanCheckpoint, DeferredCrcIsTheEagerCrc) {
  // A dirty state holding the golden words is saved eagerly.
  VersionState dirty = VersionState::golden(123, 8, 130);
  dirty.flip_bit(2, 3);
  dirty.flip_bit(2, 3);
  ASSERT_FALSE(dirty.clean());
  CheckpointStore eager;
  eager.save(130, dirty, 0.0);
  ASSERT_FALSE(eager.latest()->deferred_crc.has_value());

  CheckpointStore lazy;
  lazy.save(130, VersionState::golden(123, 8, 130), 0.0);
  // Rot and repair: the CRC is resolved before the first flip.
  ASSERT_TRUE(lazy.corrupt_stored_bit(0, 6, 60));
  ASSERT_TRUE(lazy.corrupt_stored_bit(0, 6, 60));
  EXPECT_FALSE(lazy.latest()->deferred_crc.has_value());
  EXPECT_EQ(lazy.latest()->crc, eager.latest()->crc);
  EXPECT_TRUE(CheckpointStore::verify(*lazy.latest()));
}

TEST(CleanCheckpoint, CrcOnlyRotIsUnrecoverable) {
  CheckpointStore store;
  store.save(70, VersionState::golden(123, 8, 70), 0.0);
  ASSERT_TRUE(store.corrupt_stored_bit(0, 1, 17));
  EXPECT_FALSE(CheckpointStore::verify(*store.latest()));
  Checkpoint restored;
  EXPECT_EQ(store.restore_latest(restored), RestoreStatus::kUnrecoverable);
}

TEST(CleanCheckpoint, RotOnACopiedOutCheckpointFailsVerify) {
  CheckpointStore store;
  store.save(90, VersionState::golden(123, 8, 90), 0.0);
  Checkpoint copy = *store.latest();
  copy.state.flip_bit(4, 44);
  EXPECT_FALSE(CheckpointStore::verify(copy));
  copy.state.flip_bit(4, 44);
  EXPECT_TRUE(CheckpointStore::verify(copy));
  // A later round's state is not the saved one.
  Checkpoint advanced = *store.latest();
  advanced.state.advance_round(91);
  EXPECT_FALSE(CheckpointStore::verify(advanced));
}

TEST(CleanCheckpoint, CleanRestoreIsTheGoldenState) {
  CheckpointStore store;
  store.save(65, VersionState::golden(123, 8, 65), 0.0);
  Checkpoint restored;
  EXPECT_EQ(store.restore_latest(restored), RestoreStatus::kClean);
  EXPECT_TRUE(restored.state.equals(state_at(65)));
  EXPECT_TRUE(CheckpointStore::verify(restored));
}

TEST(CleanCheckpoint, SecdedCorrectsRotOnACleanSave) {
  CheckpointStore store({}, 2, EccMode::kSecded);
  store.save(300, VersionState::golden(123, 8, 300), 0.0);
  EXPECT_FALSE(store.latest()->deferred_crc.has_value());
  ASSERT_TRUE(store.corrupt_stored_bit(0, 5, 33));
  Checkpoint restored;
  EXPECT_EQ(store.restore_latest(restored), RestoreStatus::kCorrected);
  EXPECT_TRUE(restored.state.equals(state_at(300)));
  EXPECT_TRUE(CheckpointStore::verify(restored));
}

TEST(CheckpointStore, ClearResets) {
  CheckpointStore store;
  store.save(20, state_at(20), 0.0);
  store.clear();
  EXPECT_FALSE(store.latest().has_value());
  EXPECT_EQ(store.saves(), 0u);
}

}  // namespace
}  // namespace vds::checkpoint
