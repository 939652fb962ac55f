#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "sim/rng.hpp"

namespace vds::sim {
namespace {

TEST(Accumulator, EmptyDefaults) {
  Accumulator acc;
  EXPECT_TRUE(acc.empty());
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.sem(), 0.0);
}

TEST(Accumulator, SingleValue) {
  Accumulator acc;
  acc.add(42.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 42.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.min(), 42.0);
  EXPECT_DOUBLE_EQ(acc.max(), 42.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 42.0);
}

TEST(Accumulator, MatchesDirectComputation) {
  const std::vector<double> xs = {1.0, 2.5, -3.0, 7.25, 0.0, 4.5};
  Accumulator acc;
  double sum = 0.0;
  for (const double x : xs) {
    acc.add(x);
    sum += x;
  }
  const double mean = sum / static_cast<double>(xs.size());
  double ss = 0.0;
  for (const double x : xs) ss += (x - mean) * (x - mean);
  const double var = ss / static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(acc.mean(), mean, 1e-12);
  EXPECT_NEAR(acc.variance(), var, 1e-12);
  EXPECT_NEAR(acc.stddev(), std::sqrt(var), 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), -3.0);
  EXPECT_DOUBLE_EQ(acc.max(), 7.25);
}

TEST(Accumulator, MergeEqualsSequential) {
  Accumulator all;
  Accumulator left;
  Accumulator right;
  for (int k = 0; k < 50; ++k) {
    const double x = 0.37 * k - 3.0;
    all.add(x);
    (k < 20 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(Accumulator, MergeIsAssociativeUpToRounding) {
  // Chan's merge is mathematically associative; in floating point the
  // two groupings agree to rounding error. The campaign runtime relies
  // on this (plus a *fixed* merge order for bitwise determinism).
  Accumulator a, b, c;
  Rng rng(91);
  const auto draw = [&rng](double mean, double spread) {
    return mean + spread * (rng.uniform() - 0.5);
  };
  for (int k = 0; k < 17; ++k) a.add(draw(5.0, 2.0));
  for (int k = 0; k < 113; ++k) b.add(draw(-1.0, 0.3));
  for (int k = 0; k < 5; ++k) c.add(draw(0.0, 10.0));

  Accumulator left_first = a;   // (a + b) + c
  left_first.merge(b);
  left_first.merge(c);
  Accumulator right_first = b;  // a + (b + c)
  right_first.merge(c);
  Accumulator a2 = a;
  a2.merge(right_first);

  EXPECT_EQ(left_first.count(), a2.count());
  EXPECT_NEAR(left_first.mean(), a2.mean(), 1e-12);
  EXPECT_NEAR(left_first.variance(), a2.variance(),
              1e-9 * left_first.variance());
  EXPECT_DOUBLE_EQ(left_first.min(), a2.min());
  EXPECT_DOUBLE_EQ(left_first.max(), a2.max());
  EXPECT_NEAR(left_first.sum(), a2.sum(), 1e-9);
}

TEST(Accumulator, MergeInFixedOrderIsBitwiseDeterministic) {
  // The same shards merged in the same order give the same bits --
  // the property the Monte Carlo runtime's canonical-order reduction
  // depends on for thread-count-independent results.
  std::vector<Accumulator> shards(8);
  Rng rng(92);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    for (int k = 0; k < 25; ++k) shards[s].add(10.0 * rng.uniform() - 5.0);
  }
  Accumulator first, second;
  for (const Accumulator& shard : shards) first.merge(shard);
  for (const Accumulator& shard : shards) second.merge(shard);
  EXPECT_EQ(first.mean(), second.mean());
  EXPECT_EQ(first.variance(), second.variance());
  EXPECT_EQ(first.sum(), second.sum());
}

TEST(Accumulator, MergeWithEmptyIsIdentity) {
  Accumulator acc;
  acc.add(1.0);
  acc.add(2.0);
  Accumulator empty;
  acc.merge(empty);
  EXPECT_EQ(acc.count(), 2u);
  empty.merge(acc);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_NEAR(empty.mean(), 1.5, 1e-12);
}

TEST(Accumulator, CiHalfwidthShrinksWithN) {
  Accumulator small;
  Accumulator large;
  for (int k = 0; k < 10; ++k) small.add(k % 3);
  for (int k = 0; k < 1000; ++k) large.add(k % 3);
  EXPECT_GT(small.ci_halfwidth_t(), large.ci_halfwidth_t());
}

TEST(CriticalValues, NormalMatchesTables) {
  // Classic two-sided table anchors.
  EXPECT_NEAR(normal_critical(0.95), 1.959964, 1e-5);
  EXPECT_NEAR(normal_critical(0.90), 1.644854, 1e-5);
  EXPECT_NEAR(normal_critical(0.99), 2.575829, 1e-5);
  EXPECT_NEAR(normal_critical(0.50), 0.674490, 1e-5);
}

TEST(CriticalValues, NormalRejectsDegenerateConfidence) {
  EXPECT_TRUE(std::isnan(normal_critical(0.0)));
  EXPECT_TRUE(std::isnan(normal_critical(1.0)));
  EXPECT_TRUE(std::isnan(normal_critical(-0.5)));
  EXPECT_TRUE(std::isnan(normal_critical(2.0)));
}

TEST(CriticalValues, StudentTMatchesTables) {
  // t_{0.975, dof} from standard tables.
  EXPECT_NEAR(student_t_critical(0.95, 1), 12.7062, 1e-3);
  EXPECT_NEAR(student_t_critical(0.95, 2), 4.30265, 1e-4);
  EXPECT_NEAR(student_t_critical(0.95, 4), 2.776445, 1e-5);
  EXPECT_NEAR(student_t_critical(0.95, 10), 2.228139, 1e-5);
  EXPECT_NEAR(student_t_critical(0.95, 30), 2.042272, 1e-5);
  EXPECT_NEAR(student_t_critical(0.99, 4), 4.604095, 1e-5);
  EXPECT_NEAR(student_t_critical(0.90, 7), 1.894579, 1e-5);
}

TEST(CriticalValues, StudentTConvergesToNormal) {
  EXPECT_NEAR(student_t_critical(0.95, 100000), normal_critical(0.95),
              1e-4);
  // Past the large-dof cutoff the normal value is returned exactly.
  EXPECT_DOUBLE_EQ(student_t_critical(0.95, 2000000),
                   normal_critical(0.95));
}

TEST(CriticalValues, StudentTZeroDofIsUnbounded) {
  // One sample has no variance estimate; the interval is unbounded.
  EXPECT_TRUE(std::isinf(student_t_critical(0.95, 0)));
  EXPECT_TRUE(std::isnan(student_t_critical(0.0, 5)));
  EXPECT_TRUE(std::isnan(student_t_critical(1.0, 5)));
}

TEST(Accumulator, CiHalfwidthTEmptyAndSingleAreZero) {
  Accumulator acc;
  EXPECT_DOUBLE_EQ(acc.ci_halfwidth_t(), 0.0);  // n = 0
  acc.add(3.5);
  EXPECT_DOUBLE_EQ(acc.ci_halfwidth_t(), 0.0);  // n = 1
}

TEST(Accumulator, CiHalfwidthTZeroVarianceIsZero) {
  Accumulator acc;
  for (int k = 0; k < 10; ++k) acc.add(7.0);
  EXPECT_DOUBLE_EQ(acc.ci_halfwidth_t(), 0.0);
}

TEST(Accumulator, CiHalfwidthTMatchesHandComputation) {
  // n = 5 samples -> dof 4 -> t = 2.776445; halfwidth = t * sem.
  Accumulator acc;
  for (const double x : {1.0, 2.0, 3.0, 4.0, 5.0}) acc.add(x);
  const double expected = 2.776445 * acc.sem();
  EXPECT_NEAR(acc.ci_halfwidth_t(0.95), expected, 1e-4);
  // Wider confidence, wider interval; and t beats the normal z.
  EXPECT_GT(acc.ci_halfwidth_t(0.99), acc.ci_halfwidth_t(0.95));
  EXPECT_GT(acc.ci_halfwidth_t(0.95), 1.959964 * acc.sem());
}

TEST(Accumulator, ResetClears) {
  Accumulator acc;
  acc.add(5.0);
  acc.reset();
  EXPECT_TRUE(acc.empty());
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), std::invalid_argument);
}

TEST(Histogram, BinsValuesCorrectly) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(0.9);
  h.add(5.0);
  h.add(9.99);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(5), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, TracksUnderAndOverflow) {
  Histogram h(0.0, 1.0, 2);
  h.add(-0.1);
  h.add(1.0);  // hi is exclusive
  h.add(55.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, BinEdges) {
  Histogram h(2.0, 6.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 3.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 5.0);
  EXPECT_THROW((void)h.bin_lo(4), std::out_of_range);
}

TEST(Histogram, QuantileOfUniformData) {
  Histogram h(0.0, 100.0, 100);
  for (int k = 0; k < 100; ++k) h.add(k + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
  EXPECT_NEAR(h.quantile(0.0), 0.0, 1.0);
}

TEST(Histogram, QuantileOnEmptyReturnsLo) {
  Histogram h(5.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
}

TEST(Histogram, ToStringMentionsEveryBin) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(1.5);
  const std::string s = h.to_string();
  EXPECT_NE(s.find("[0, 1)"), std::string::npos);
  EXPECT_NE(s.find("[1, 2)"), std::string::npos);
}

TEST(Histogram, NanIsCountedNotBinned) {
  // NaN compares false against every bound, so the unguarded cast to
  // size_t was UB (caught by UBSan once this test existed). It must
  // land in its own bucket, not in a value bin.
  Histogram h(0.0, 10.0, 10);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(-std::numeric_limits<double>::quiet_NaN());
  h.add(5.0);
  EXPECT_EQ(h.nan_count(), 2u);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
  std::uint64_t binned = 0;
  for (std::size_t i = 0; i < h.bins(); ++i) binned += h.bin_count(i);
  EXPECT_EQ(binned, 1u);
  EXPECT_NE(h.to_string().find("nan 2"), std::string::npos);
}

TEST(Histogram, InfinitiesLandInOverflowBins) {
  Histogram h(0.0, 1.0, 4);
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.nan_count(), 0u);
}

TEST(Histogram, QuantileIgnoresNanMass) {
  Histogram h(0.0, 10.0, 10);
  for (int k = 0; k < 10; ++k) h.add(static_cast<double>(k) + 0.5);
  const double median_before = h.quantile(0.5);
  for (int k = 0; k < 100; ++k) {
    h.add(std::numeric_limits<double>::quiet_NaN());
  }
  // NaN samples have no rank; the quantile of the real data is
  // unchanged no matter how many arrive.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), median_before);
}

TEST(Histogram, QuantileOfAllNanReturnsLo) {
  // With zero ranked samples (total == nan_count) there is nothing to
  // rank, so every quantile degrades to lo — same as an empty
  // histogram, and never NaN.
  Histogram h(2.0, 10.0, 8);
  for (int k = 0; k < 5; ++k) {
    h.add(std::numeric_limits<double>::quiet_NaN());
  }
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.nan_count(), 5u);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 2.0);
}

}  // namespace
}  // namespace vds::sim
