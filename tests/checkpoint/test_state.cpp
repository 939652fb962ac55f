#include "checkpoint/state.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <thread>
#include <tuple>
#include <vector>

namespace vds::checkpoint {
namespace {

TEST(VersionState, SameSeedSameState) {
  const VersionState a(42, 16);
  const VersionState b(42, 16);
  EXPECT_TRUE(a.equals(b));
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(VersionState, DifferentSeedsDiffer) {
  const VersionState a(1, 16);
  const VersionState b(2, 16);
  EXPECT_FALSE(a.equals(b));
  EXPECT_NE(a.digest(), b.digest());
}

TEST(VersionState, AdvanceIsDeterministic) {
  VersionState a(7, 8);
  VersionState b(7, 8);
  for (std::uint64_t r = 1; r <= 50; ++r) {
    a.advance_round(r);
    b.advance_round(r);
  }
  EXPECT_TRUE(a.equals(b));
  EXPECT_TRUE(a.equals(VersionState::golden(7, 8, 50)));
}

TEST(VersionState, ReplayFromCopyReproducesState) {
  // The property the retry/vote relies on: replaying the same rounds
  // from a checkpoint copy reaches the identical state.
  VersionState live(9, 8);
  for (std::uint64_t r = 1; r <= 10; ++r) live.advance_round(r);
  const VersionState checkpoint = live;  // checkpoint at round 10
  for (std::uint64_t r = 11; r <= 20; ++r) live.advance_round(r);

  VersionState retry = checkpoint;
  for (std::uint64_t r = 11; r <= 20; ++r) retry.advance_round(r);
  EXPECT_TRUE(retry.equals(live));
}

TEST(VersionState, RoundIndexMatters) {
  VersionState a(7, 8);
  VersionState b(7, 8);
  a.advance_round(1);
  b.advance_round(2);
  EXPECT_FALSE(a.equals(b));
}

TEST(VersionState, FlipBitDiverges) {
  VersionState a(3, 8);
  VersionState b(3, 8);
  b.flip_bit(2, 17);
  EXPECT_FALSE(a.equals(b));
  EXPECT_NE(a.digest(), b.digest());
  // Undo restores equality.
  b.flip_bit(2, 17);
  EXPECT_TRUE(a.equals(b));
}

TEST(VersionState, CorruptionPersistsThroughRounds) {
  VersionState clean(3, 8);
  VersionState dirty(3, 8);
  dirty.flip_bit(0, 0);
  for (std::uint64_t r = 1; r <= 100; ++r) {
    clean.advance_round(r);
    dirty.advance_round(r);
    EXPECT_FALSE(clean.equals(dirty)) << "healed at round " << r;
  }
}

TEST(VersionState, FlipOutOfRangeWraps) {
  VersionState a(3, 4);
  VersionState b(3, 4);
  b.flip_bit(4, 64);  // wraps to word 0, bit 0
  a.flip_bit(0, 0);
  EXPECT_TRUE(a.equals(b));
}

TEST(VersionState, SingleBitChangesDigest) {
  // Property sweep: flipping any single bit must change the digest
  // (FNV-1a over the words is injective enough for single flips).
  VersionState base(11, 4);
  const std::uint64_t d0 = base.digest();
  for (std::size_t w = 0; w < 4; ++w) {
    for (unsigned bit = 0; bit < 64; bit += 7) {
      VersionState mutant = base;
      mutant.flip_bit(w, bit);
      EXPECT_NE(mutant.digest(), d0) << w << ":" << bit;
    }
  }
}

TEST(VersionState, ZeroWordsClampedToOne) {
  const VersionState s(1, 0);
  EXPECT_EQ(s.data().size(), 1u);
}

class StateSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StateSizeSweep, DivergenceDetectedAtEverySize) {
  const std::size_t words = GetParam();
  VersionState a(5, words);
  VersionState b(5, words);
  for (std::uint64_t r = 1; r <= 5; ++r) {
    a.advance_round(r);
    b.advance_round(r);
  }
  EXPECT_EQ(a.digest(), b.digest());
  b.flip_bit(words / 2, 33);
  b.advance_round(6);
  a.advance_round(6);
  EXPECT_NE(a.digest(), b.digest());
}

INSTANTIATE_TEST_SUITE_P(Sizes, StateSizeSweep,
                         ::testing::Values(1, 2, 4, 16, 64, 256));

// --- clean tags ---------------------------------------------------------

/// The eager state every version once carried: words always present,
/// advanced and flipped in place. Reference for the clean-tag state.
class EagerState {
 public:
  EagerState(std::uint64_t job_seed, std::size_t words)
      : data_(words == 0 ? 1 : words) {
    std::uint64_t x = job_seed ^ 0x9e3779b97f4a7c15ull;
    for (auto& word : data_) {
      x = mix(x + 0x2545f4914f6cdd1dull);
      word = x;
    }
  }

  void advance_round(std::uint64_t round_index) {
    std::uint64_t carry = mix(round_index + 0x5851f42d4c957f2dull);
    for (auto& word : data_) {
      word = mix(word ^ carry);
      carry = word;
    }
    ++rounds_applied_;
  }

  void flip_bit(std::size_t word, unsigned bit) {
    data_[word % data_.size()] ^= (1ull << (bit % 64u));
  }

  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const auto word : data_) {
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (word >> (8 * byte)) & 0xffull;
        h *= 0x100000001b3ull;
      }
    }
    return h;
  }

  [[nodiscard]] const std::vector<std::uint64_t>& data() const {
    return data_;
  }
  [[nodiscard]] std::uint64_t rounds_applied() const {
    return rounds_applied_;
  }

 private:
  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
  }

  std::vector<std::uint64_t> data_;
  std::uint64_t rounds_applied_ = 0;
};

EagerState eager_golden(std::uint64_t seed, std::size_t words,
                        std::uint64_t round) {
  EagerState state(seed, words);
  for (std::uint64_t r = 1; r <= round; ++r) state.advance_round(r);
  return state;
}

TEST(CleanTag, SeededStateIsCleanAndStaysCleanOnGoldenRounds) {
  VersionState a(4, 16);
  EXPECT_TRUE(a.clean());
  for (std::uint64_t r = 1; r <= 200; ++r) a.advance_round(r);
  EXPECT_TRUE(a.clean());
  EXPECT_EQ(a.data(), eager_golden(4, 16, 200).data());
  // Materialized by data(), still on the golden trajectory.
  EXPECT_TRUE(a.clean());
  a.advance_round(201);
  EXPECT_TRUE(a.clean());
  EXPECT_EQ(a.data(), eager_golden(4, 16, 201).data());
}

TEST(CleanTag, LeavingTheGoldenTrajectoryMakesTheStateDirty) {
  VersionState skipped(4, 16);
  skipped.advance_round(2);
  EXPECT_FALSE(skipped.clean());

  VersionState flipped(4, 16);
  flipped.advance_round(1);
  flipped.flip_bit(3, 9);
  EXPECT_FALSE(flipped.clean());
  flipped.flip_bit(3, 9);  // same words again, but no longer a tag
  EXPECT_FALSE(flipped.clean());
  EXPECT_TRUE(flipped.equals(VersionState::golden(4, 16, 1)));
}

TEST(CleanTag, GoldenMatchesTheAdvancedSeededState) {
  for (const std::uint64_t round : {0ull, 1ull, 63ull, 64ull, 65ull, 1000ull}) {
    const VersionState tag = VersionState::golden(8, 5, round);
    EXPECT_TRUE(tag.clean());
    const EagerState reference = eager_golden(8, 5, round);
    EXPECT_EQ(tag.digest(), reference.digest()) << round;
    EXPECT_EQ(tag.data(), reference.data()) << round;
  }
}

TEST(CleanTag, DigestsAndDirtyComparesKeepTheTagGolden) {
  // Each round materializes the tag's words for the compare; its next
  // golden round drops them again and it stays the golden state.
  VersionState tag(2, 16);
  VersionState dirty(2, 16);
  dirty.flip_bit(0, 1);
  for (std::uint64_t r = 1; r <= 130; ++r) {
    tag.advance_round(r);
    dirty.advance_round(r);
    EXPECT_FALSE(tag.equals(dirty));
    EXPECT_NE(tag.digest(), dirty.digest());
  }
  EXPECT_TRUE(tag.clean());
  EXPECT_EQ(tag.digest(), eager_golden(2, 16, 130).digest());
}

/// Drives clean-tag states and eager references through one randomized
/// sequence of in-order and out-of-order advances, bit flips, copies
/// and resets to golden rounds across the 64-round snapshot stride;
/// every observation must agree.
class CleanTagProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(CleanTagProperty, MatchesTheEagerState) {
  const auto [seed, words] = GetParam();
  std::mt19937_64 rng(seed * 7919 + words);
  const auto pick = [&](std::uint64_t n) {
    return static_cast<std::uint64_t>(rng() % n);
  };

  constexpr std::size_t kSlots = 4;
  std::vector<VersionState> tags(kSlots, VersionState(seed, words));
  std::vector<EagerState> refs(kSlots, EagerState(seed, words));

  for (int step = 0; step < 4000; ++step) {
    const std::size_t i = pick(kSlots);
    const std::size_t j = pick(kSlots);
    const std::uint64_t op = pick(100);
    if (op < 60) {  // the next golden round
      const std::uint64_t r = refs[i].rounds_applied() + 1;
      tags[i].advance_round(r);
      refs[i].advance_round(r);
    } else if (op < 66) {  // any other round index
      const std::uint64_t r = pick(400);
      tags[i].advance_round(r);
      refs[i].advance_round(r);
    } else if (op < 72) {
      const std::size_t w = pick(1u << 16);
      const auto bit = static_cast<unsigned>(pick(128));
      tags[i].flip_bit(w, bit);
      refs[i].flip_bit(w, bit);
    } else if (op < 80) {
      tags[i] = tags[j];
      refs[i] = refs[j];
    } else if (op < 85) {  // reset to a golden round, often far away
      const std::uint64_t r = pick(300);
      tags[i] = VersionState::golden(seed, words, r);
      refs[i] = eager_golden(seed, words, r);
    } else if (op < 90) {
      ASSERT_EQ(tags[i].data(), refs[i].data()) << "step " << step;
    } else {
      ASSERT_EQ(tags[i].digest(), refs[i].digest()) << "step " << step;
    }
    ASSERT_EQ(tags[i].equals(tags[j]), refs[i].data() == refs[j].data())
        << "step " << step;
  }
  for (std::size_t i = 0; i < kSlots; ++i) {
    EXPECT_EQ(tags[i].digest(), refs[i].digest());
    EXPECT_EQ(tags[i].data(), refs[i].data());
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSizes, CleanTagProperty,
    ::testing::Combine(::testing::Values(1ull, 99ull),
                       ::testing::Values(std::size_t{1}, std::size_t{3},
                                         std::size_t{16})));

TEST(CleanTagConcurrency, ThreadsMaterializeRandomRoundsAtOnce) {
  // A (seed, words) no other test uses, so the shared golden table is
  // extended by the racing threads themselves.
  constexpr std::uint64_t kSeed = 0xc0ffee;
  constexpr std::size_t kWords = 16;
  constexpr std::uint64_t kRounds = 1500;
  std::vector<std::vector<std::uint64_t>> trajectory;
  EagerState reference(kSeed, kWords);
  trajectory.push_back(reference.data());
  for (std::uint64_t r = 1; r <= kRounds; ++r) {
    reference.advance_round(r);
    trajectory.push_back(reference.data());
  }

  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) + 1);
      for (int n = 0; n < 300; ++n) {
        const std::uint64_t round = rng() % kRounds;
        const VersionState tag = VersionState::golden(kSeed, kWords, round);
        VersionState next = tag;
        next.advance_round(round + 1);
        if (n % 2 == 0) {  // dirty, with the golden words
          next.flip_bit(0, 0);
          next.flip_bit(0, 0);
        }
        if (tag.data() != trajectory[round] ||
            next.data() != trajectory[round + 1]) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace vds::checkpoint
