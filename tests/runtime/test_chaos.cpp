#include "runtime/chaos.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace vds::runtime {
namespace {

TEST(Chaos, EmptySpecIsDisarmed) {
  const Chaos chaos = Chaos::parse("", 1);
  EXPECT_FALSE(chaos.armed());
  EXPECT_FALSE(chaos.fires(kChaosCellFail, 0));
  EXPECT_FALSE(chaos.fires(kChaosJournalTorn, 42));
}

TEST(Chaos, ProbabilityOneAlwaysFires) {
  const Chaos chaos = Chaos::parse("cell.fail=1", 7);
  EXPECT_TRUE(chaos.armed());
  for (std::uint64_t key = 0; key < 64; ++key) {
    EXPECT_TRUE(chaos.fires(kChaosCellFail, key));
  }
  // Other sites stay cold.
  EXPECT_FALSE(chaos.fires(kChaosCellHang, 0));
}

TEST(Chaos, ProbabilityZeroNeverFires) {
  const Chaos chaos = Chaos::parse("cell.fail=0", 7);
  for (std::uint64_t key = 0; key < 64; ++key) {
    EXPECT_FALSE(chaos.fires(kChaosCellFail, key));
  }
}

TEST(Chaos, DecisionsAreDeterministicInTheSeed) {
  const Chaos a = Chaos::parse("cell.fail=0.5,journal.corrupt=0.3", 11);
  const Chaos b = Chaos::parse("cell.fail=0.5,journal.corrupt=0.3", 11);
  const Chaos c = Chaos::parse("cell.fail=0.5,journal.corrupt=0.3", 12);
  bool seed_changes_something = false;
  for (std::uint64_t key = 0; key < 256; ++key) {
    EXPECT_EQ(a.fires(kChaosCellFail, key), b.fires(kChaosCellFail, key));
    EXPECT_EQ(a.fires(kChaosJournalCorrupt, key),
              b.fires(kChaosJournalCorrupt, key));
    if (a.fires(kChaosCellFail, key) != c.fires(kChaosCellFail, key)) {
      seed_changes_something = true;
    }
  }
  EXPECT_TRUE(seed_changes_something);
}

TEST(Chaos, FireRateTracksProbability) {
  const Chaos chaos = Chaos::parse("cell.fail=0.25", 3);
  int fired = 0;
  constexpr int kTrials = 4000;
  for (std::uint64_t key = 0; key < kTrials; ++key) {
    if (chaos.fires(kChaosCellFail, key)) ++fired;
  }
  // Binomial(4000, 0.25): 5 sigma is ~137.
  EXPECT_NEAR(fired, kTrials / 4, 140);
}

TEST(Chaos, LimitCapsFiresPerKey) {
  // "fail the first attempt only": attempt 0 fires, attempt 1+ never
  // does, so a single retry always rescues the cell.
  const Chaos chaos = Chaos::parse("cell.fail=1:1", 5);
  for (std::uint64_t key = 0; key < 16; ++key) {
    EXPECT_TRUE(chaos.fires(kChaosCellFail, key, 0));
    EXPECT_FALSE(chaos.fires(kChaosCellFail, key, 1));
    EXPECT_FALSE(chaos.fires(kChaosCellFail, key, 2));
  }
  const Chaos two = Chaos::parse("cell.hang=1:2", 5);
  EXPECT_TRUE(two.fires(kChaosCellHang, 0, 0));
  EXPECT_TRUE(two.fires(kChaosCellHang, 0, 1));
  EXPECT_FALSE(two.fires(kChaosCellHang, 0, 2));
}

TEST(Chaos, ParseRejectsUnknownSite) {
  try {
    (void)Chaos::parse("cell.explode=0.5", 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("cell.explode"), std::string::npos) << what;
    // The message lists the valid sites so the user can fix the typo.
    EXPECT_NE(what.find("cell.hang"), std::string::npos) << what;
    EXPECT_NE(what.find("journal.torn"), std::string::npos) << what;
  }
}

TEST(Chaos, ParseRejectsMalformedSpecs) {
  EXPECT_THROW((void)Chaos::parse("cell.fail", 1), std::invalid_argument);
  EXPECT_THROW((void)Chaos::parse("cell.fail=", 1), std::invalid_argument);
  EXPECT_THROW((void)Chaos::parse("cell.fail=1.5", 1),
               std::invalid_argument);
  EXPECT_THROW((void)Chaos::parse("cell.fail=-0.5", 1),
               std::invalid_argument);
  EXPECT_THROW((void)Chaos::parse("cell.fail=nope", 1),
               std::invalid_argument);
  EXPECT_THROW((void)Chaos::parse("cell.fail=0.5:0", 1),
               std::invalid_argument);
  EXPECT_THROW((void)Chaos::parse("cell.fail=0.5:x", 1),
               std::invalid_argument);
  EXPECT_THROW((void)Chaos::parse("=0.5", 1), std::invalid_argument);
}

TEST(Chaos, SpecRoundTripsAndKnownSitesComplete) {
  const Chaos chaos = Chaos::parse("pool.delay=0.125", 2);
  EXPECT_EQ(chaos.spec(), "pool.delay=0.125");
  // Every site parses, and an unknown site's error names all of them.
  std::string message;
  try {
    (void)Chaos::parse("no.such.site=1", 1);
  } catch (const std::invalid_argument& e) {
    message = e.what();
  }
  for (const auto site :
       {kChaosCellHang, kChaosCellFail, kChaosJournalCorrupt,
        kChaosJournalTorn, kChaosPoolDelay}) {
    EXPECT_TRUE(Chaos::parse(std::string(site) + "=1", 1).fires(site, 0))
        << site;
    EXPECT_NE(message.find(site), std::string::npos) << site;
  }
}

}  // namespace
}  // namespace vds::runtime
