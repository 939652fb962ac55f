#include "sim/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

namespace vds::sim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int k = 0; k < 100; ++k) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int k = 0; k < 100; ++k) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ReseedRestartsStream) {
  Rng rng(77);
  const auto first = rng.next();
  rng.next();
  rng.reseed(77);
  EXPECT_EQ(rng.next(), first);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int k = 0; k < 10000; ++k) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 100000;
  for (int k = 0; k < n; ++k) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexStaysBelowN) {
  Rng rng(7);
  for (int k = 0; k < 10000; ++k) EXPECT_LT(rng.uniform_index(17), 17u);
}

TEST(Rng, UniformIndexIsRoughlyUniform) {
  Rng rng(8);
  std::array<int, 8> counts{};
  const int n = 80000;
  for (int k = 0; k < n; ++k) ++counts[rng.uniform_index(8)];
  for (const int c : counts) EXPECT_NEAR(c, n / 8, n / 8 * 0.1);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(10);
  for (int k = 0; k < 100; ++k) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(11);
  int hits = 0;
  const int n = 100000;
  for (int k = 0; k < n; ++k) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(12);
  double sum = 0.0;
  const int n = 100000;
  for (int k = 0; k < n; ++k) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ExponentialIsPositive) {
  Rng rng(13);
  for (int k = 0; k < 10000; ++k) EXPECT_GT(rng.exponential(1.0), 0.0);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(17);
  Rng child_a = parent.split(1);
  Rng child_b = parent.split(2);
  int equal = 0;
  for (int k = 0; k < 1000; ++k) {
    if (child_a.next() == child_b.next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, SubstreamIsPureFunctionOfSeed) {
  // Unlike split(), substream() must not depend on how far the parent
  // has advanced -- that is what makes parallel campaigns bitwise
  // reproducible regardless of which thread draws which stream first.
  Rng fresh(42);
  Rng consumed(42);
  for (int k = 0; k < 1000; ++k) consumed.next();
  Rng a = fresh.substream(3);
  Rng b = consumed.substream(3);
  for (int k = 0; k < 100; ++k) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SubstreamReproducibleAcrossReseeds) {
  Rng rng(42);
  Rng first = rng.substream(5);
  const auto expected = first.next();
  rng.next();
  rng.reseed(42);
  Rng second = rng.substream(5);
  EXPECT_EQ(second.next(), expected);
}

TEST(Rng, DistinctSubstreamsDiffer) {
  Rng rng(19);
  Rng a = rng.substream(0);
  Rng b = rng.substream(1);
  int equal = 0;
  for (int k = 0; k < 1000; ++k) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, SubstreamsAreStatisticallyUncorrelated) {
  // Sample correlation between adjacent substreams' uniforms; for
  // independent streams |r| is O(1/sqrt(n)).
  Rng rng(20);
  const int n = 20000;
  for (const std::uint64_t id : {0ull, 1ull, 41ull, 1000000ull}) {
    Rng a = rng.substream(id);
    Rng b = rng.substream(id + 1);
    double sum_x = 0.0, sum_y = 0.0, sum_xx = 0.0, sum_yy = 0.0,
           sum_xy = 0.0;
    for (int k = 0; k < n; ++k) {
      const double x = a.uniform();
      const double y = b.uniform();
      sum_x += x;
      sum_y += y;
      sum_xx += x * x;
      sum_yy += y * y;
      sum_xy += x * y;
    }
    const double cov = sum_xy / n - (sum_x / n) * (sum_y / n);
    const double var_x = sum_xx / n - (sum_x / n) * (sum_x / n);
    const double var_y = sum_yy / n - (sum_y / n) * (sum_y / n);
    const double corr = cov / std::sqrt(var_x * var_y);
    EXPECT_LT(std::abs(corr), 0.03) << "stream id " << id;
    EXPECT_NEAR(sum_x / n, 0.5, 0.02) << "stream id " << id;
  }
}

TEST(Rng, SubstreamsOfDifferentSeedsDiffer) {
  Rng a = Rng(1).substream(7);
  Rng b = Rng(2).substream(7);
  int equal = 0;
  for (int k = 0; k < 1000; ++k) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

}  // namespace
}  // namespace vds::sim
