#include "fault/detector.hpp"

#include <gtest/gtest.h>

#include "sim/rng.hpp"

namespace vds::fault {
namespace {

using vds::checkpoint::VersionState;

VersionState advanced(std::uint64_t seed, std::uint64_t rounds) {
  VersionState state(seed, 8);
  for (std::uint64_t r = 1; r <= rounds; ++r) state.advance_round(r);
  return state;
}

TEST(CompareStates, EqualStatesMatch) {
  const VersionState a = advanced(1, 10);
  const VersionState b = advanced(1, 10);
  EXPECT_EQ(compare_states(a, b), CompareOutcome::kMatch);
}

TEST(CompareStates, CorruptedStateMismatches) {
  const VersionState a = advanced(1, 10);
  VersionState b = advanced(1, 10);
  b.flip_bit(3, 9);
  EXPECT_EQ(compare_states(a, b), CompareOutcome::kMismatch);
}

// --- the shared comparison rule against a pure-digest reference -------

bool digest_match(const VersionState& a, const VersionState& b) {
  return a.digest() == b.digest();
}

/// `base` with `flips` random bit flips (two flips may cancel).
VersionState flipped(const VersionState& base, int flips,
                     vds::sim::Rng& rng) {
  VersionState out = base;
  for (int k = 0; k < flips; ++k) {
    out.flip_bit(rng.uniform_index(base.words()),
                 static_cast<unsigned>(rng.uniform_index(64)));
  }
  return out;
}

TEST(StatesMatch, AgreesWithDigestRuleOnRandomFlips) {
  vds::sim::Rng rng(2024);
  int matches = 0;
  int mismatches = 0;
  for (const std::size_t words : {1u, 2u, 3u, 8u, 64u, 257u}) {
    for (int trial = 0; trial < 60; ++trial) {
      VersionState base(rng.next(), words);
      const std::uint64_t rounds = rng.uniform_index(4);
      for (std::uint64_t r = 1; r <= rounds; ++r) base.advance_round(r);
      const VersionState p = flipped(base, trial % 3, rng);
      const VersionState q = flipped(base, (trial / 3) % 3, rng);
      const VersionState s = flipped(base, (trial / 9) % 3, rng);
      for (const auto* x : {&p, &q, &s}) {
        for (const auto* y : {&p, &q, &s}) {
          const bool want = digest_match(*x, *y);
          EXPECT_EQ(states_match(*x, *y), want);
          EXPECT_EQ(compare_states(*x, *y),
                    want ? CompareOutcome::kMatch
                         : CompareOutcome::kMismatch);
          ++(want ? matches : mismatches);
        }
      }
    }
  }
  // The draw reaches both comparison outcomes.
  EXPECT_GT(matches, 0);
  EXPECT_GT(mismatches, 0);
}

TEST(StatesMatch, DifferentSizesFallBackToDigest) {
  const VersionState small(7, 4);
  const VersionState large(7, 5);
  EXPECT_FALSE(small.equals(large));
  EXPECT_EQ(states_match(small, large), digest_match(small, large));
  EXPECT_FALSE(states_match(small, large));
}

}  // namespace
}  // namespace vds::fault
