#include "core/version_set.hpp"

#include <gtest/gtest.h>

namespace vds::core {
namespace {

VdsOptions options() {
  VdsOptions opt;
  opt.state_words = 8;
  opt.job_seed = 9;
  return opt;
}

TEST(VersionSet, InitialStateIsDeterministic) {
  VersionSet a(options());
  VersionSet b(options());
  EXPECT_TRUE(a.initial_state().equals(b.initial_state()));
}

TEST(VersionSet, FaultFreeVersionsAgree) {
  VersionSet vset(options());
  auto v1 = vset.initial_state();
  auto v2 = vset.initial_state();
  for (std::uint64_t r = 1; r <= 30; ++r) {
    vset.advance(v1, r, 1);
    vset.advance(v2, r, 2);
  }
  EXPECT_TRUE(v1.equals(v2));
}

TEST(VersionSet, GoldenMatchesFaultFreeExecution) {
  VersionSet vset(options());
  auto v1 = vset.initial_state();
  for (std::uint64_t r = 1; r <= 12; ++r) vset.advance(v1, r, 1);
  EXPECT_EQ(vset.golden_at(12).digest(), v1.digest());
}

TEST(VersionSet, GoldenRequiresMonotonicRounds) {
  VersionSet vset(options());
  (void)vset.golden_at(10);
  EXPECT_NO_THROW((void)vset.golden_at(10));
  EXPECT_NO_THROW((void)vset.golden_at(11));
  EXPECT_THROW((void)vset.golden_at(5), std::logic_error);
}

TEST(VersionSet, ExposedPermanentDivergesAffectedVersions) {
  VersionSet vset(options());
  vset.set_permanent(3, /*exposed=*/true, /*affected_mask=*/0b011);
  auto v1 = vset.initial_state();
  auto v2 = vset.initial_state();
  auto v3 = vset.initial_state();
  vset.advance(v1, 1, 1);
  vset.advance(v2, 1, 2);
  vset.advance(v3, 1, 3);
  // v1 and v2 both corrupted, differently; v3 untouched and correct.
  EXPECT_FALSE(v1.equals(v2));
  EXPECT_FALSE(v1.equals(v3));
  EXPECT_EQ(v3.digest(), vset.golden_at(1).digest());
}

TEST(VersionSet, UnexposedPermanentCorruptsIdentically) {
  VersionSet vset(options());
  vset.set_permanent(3, /*exposed=*/false, 0b011);
  auto v1 = vset.initial_state();
  auto v2 = vset.initial_state();
  vset.advance(v1, 1, 1);
  vset.advance(v2, 1, 2);
  // The dangerous case: both wrong, but equal -- undetectable.
  EXPECT_TRUE(v1.equals(v2));
  EXPECT_NE(v1.digest(), vset.golden_at(1).digest());
}

TEST(VersionSet, MaskSelectsAffectedVersions) {
  VersionSet vset(options());
  vset.set_permanent(3, true, 0b001);  // only version 1
  auto v1 = vset.initial_state();
  vset.advance(v1, 1, 1);
  EXPECT_NE(v1.digest(), vset.golden_at(1).digest());
  for (const int version : {2, 3}) {
    auto v = vset.initial_state();
    vset.advance(v, 1, version);
    EXPECT_EQ(v.digest(), vset.golden_at(1).digest()) << version;
  }
}

TEST(VersionSet, PermanentPersistsAcrossRounds) {
  VersionSet vset(options());
  vset.set_permanent(3, true, 0b001);
  auto v1 = vset.initial_state();
  for (std::uint64_t r = 1; r <= 10; ++r) vset.advance(v1, r, 1);
  // Replaying the same rounds with the fault still active reproduces
  // the same corrupted state (determinism even under faults).
  auto replay = vset.initial_state();
  for (std::uint64_t r = 1; r <= 10; ++r) vset.advance(replay, r, 1);
  EXPECT_TRUE(v1.equals(replay));
  EXPECT_NE(v1.digest(), vset.golden_at(10).digest());
}

TEST(VersionSet, NoPermanentByDefault) {
  // Without set_permanent every version computes the golden state.
  VersionSet vset(options());
  for (const int version : {1, 2, 3}) {
    auto v = vset.initial_state();
    for (std::uint64_t r = 1; r <= 5; ++r) vset.advance(v, r, version);
    EXPECT_EQ(v.digest(), vset.golden_at(5).digest()) << version;
  }
}

}  // namespace
}  // namespace vds::core
