#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <type_traits>
#include <vector>

#include "sim/rng.hpp"

// Counts heap allocations, so Histogram's lazy allocation is testable.
namespace {
std::uint64_t g_allocations = 0;
}  // namespace

// GCC pairs the inlined malloc/free with new/delete and warns falsely.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

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

// --- Histogram ------------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
// The relative error bound documented on Histogram (stats.hpp).
constexpr double kEpsilon = 1.0 / 64;

/// The exact nearest-rank q-quantile: the ceil(q * n)-th smallest.
double nearest_rank(const std::vector<double>& sorted, double q) {
  const auto n = sorted.size();
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  return sorted[rank - 1];
}

/// Checks p50, p90, p99 and p99.9 of `samples` against the exact order
/// statistic: within epsilon, and inside the observed [min, max].
void expect_quantiles_within_epsilon(std::vector<double> samples) {
  Histogram h;
  for (const double x : samples) h.add(x);
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const double want = nearest_rank(samples, q);
    const double got = h.quantile(q);
    EXPECT_LE(std::fabs(got - want), kEpsilon * want)
        << "q=" << q << " want=" << want << " got=" << got;
    EXPECT_GE(got, samples.front()) << "q=" << q;
    EXPECT_LE(got, samples.back()) << "q=" << q;
  }
}

template <typename Draw>
std::vector<double> draw_samples(std::size_t n, std::uint64_t seed,
                                 Draw draw) {
  Rng rng(seed);
  std::vector<double> samples(n);
  for (double& x : samples) x = draw(rng);
  return samples;
}

TEST(Histogram, RejectsBadConstruction) {
  // No range or bin count to get wrong: the buckets are fixed.
  EXPECT_FALSE(
      (std::is_constructible_v<Histogram, double, double, std::size_t>));
  EXPECT_TRUE(std::is_default_constructible_v<Histogram>);
}

TEST(Histogram, QuantileOfUniformData) {
  expect_quantiles_within_epsilon(draw_samples(
      20000, 1, [](Rng& rng) { return 100.0 * rng.uniform(); }));
}

TEST(Histogram, QuantileOfExponentialData) {
  expect_quantiles_within_epsilon(
      draw_samples(20000, 2, [](Rng& rng) { return rng.exponential(4.0); }));
}

TEST(Histogram, QuantileOfLogUniformData) {
  // Twelve decades, 1e-6 .. 1e6: every binade of the range is used.
  expect_quantiles_within_epsilon(draw_samples(20000, 3, [](Rng& rng) {
    return std::exp(std::log(1e-6) + rng.uniform() * std::log(1e12));
  }));
}

TEST(Histogram, QuantileOfPointMassIsExact) {
  Histogram h;
  for (int k = 0; k < 1000; ++k) h.add(0.37);
  // The clamp to [min, max] removes the bucket error entirely.
  for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(h.quantile(q), 0.37) << "q=" << q;
  }
  expect_quantiles_within_epsilon(std::vector<double>(1000, 0.37));
}

TEST(Histogram, QuantileOfBimodalCellTimes) {
  // Shaped like mc.cell_attempt_ms: 99 % fast cells of a few
  // microseconds, 1 % stalls of 1-20 ms.
  expect_quantiles_within_epsilon(draw_samples(20000, 4, [](Rng& rng) {
    return rng.uniform() < 0.99 ? 0.002 + 0.008 * rng.uniform()
                                : 1.0 + 19.0 * rng.uniform();
  }));
}

TEST(Histogram, BinsValuesCorrectly) {
  // Over a fine q grid the quantile never decreases and always sits
  // within epsilon of the exact order statistic.
  std::vector<double> samples = draw_samples(500, 5, [](Rng& rng) {
    return std::exp(std::log(1e-5) + rng.uniform() * std::log(1e11));
  });
  Histogram h;
  for (const double x : samples) h.add(x);
  std::sort(samples.begin(), samples.end());
  double last = -kInf;
  for (int k = 0; k <= 1000; ++k) {
    const double q = k / 1000.0;
    const double want = nearest_rank(samples, q);
    const double got = h.quantile(q);
    EXPECT_LE(std::fabs(got - want), kEpsilon * want) << "q=" << q;
    EXPECT_GE(got, last) << "q=" << q;
    last = got;
  }
}

TEST(Histogram, BinEdges) {
  // Binade edges 2^e and the last value below 2^(e+1), across the
  // whole tracked range [2^-20, 2^22). The outer samples keep the
  // [min, max] clamp from hiding the bucket error of the middle one.
  for (int e = -20; e < 22; ++e) {
    const double lo = std::ldexp(1.0, e);
    for (const double x : {lo, std::nextafter(2.0 * lo, 0.0)}) {
      Histogram h;
      h.add(std::ldexp(1.0, -20));
      h.add(x);
      h.add(std::nextafter(std::ldexp(1.0, 22), 0.0));
      EXPECT_LE(std::fabs(h.quantile(0.5) - x), kEpsilon * x) << "x=" << x;
      EXPECT_EQ(h.underflow(), 0u);
      EXPECT_EQ(h.overflow(), 0u);
    }
  }
}

TEST(Histogram, TracksUnderAndOverflow) {
  Histogram h;
  for (const double x : {0.0, -1.0, -kInf, 1e-7}) h.add(x);  // < 2^-20
  for (const double x : {std::ldexp(1.0, 22), 1e9, kInf}) h.add(x);
  h.add(1.0);
  EXPECT_EQ(h.underflow(), 4u);
  EXPECT_EQ(h.overflow(), 3u);
  EXPECT_EQ(h.total(), 8u);
  EXPECT_EQ(h.accumulator().count(), 8u);
}

TEST(Histogram, ZeroAndNegativeSamplesRankAtZero) {
  // The underflow bucket is valued 0, clamped to [min, max].
  Histogram zeros;
  for (const double x : {0.0, 0.0, 0.0, 1.0, 2.0}) zeros.add(x);
  EXPECT_EQ(zeros.quantile(0.5), 0.0);
  EXPECT_LE(std::fabs(zeros.quantile(1.0) - 2.0), kEpsilon * 2.0);

  Histogram mixed;
  for (const double x : {-5.0, 0.0, 0.0, 1.0}) mixed.add(x);
  EXPECT_EQ(mixed.quantile(0.5), 0.0);
  EXPECT_EQ(mixed.accumulator().min(), -5.0);

  Histogram negative;
  for (int k = 0; k < 3; ++k) negative.add(-3.0);
  EXPECT_EQ(negative.quantile(0.5), -3.0);
  EXPECT_EQ(negative.underflow(), 3u);
}

TEST(Histogram, QuantileOnEmptyReturnsZero) {
  const Histogram h;
  EXPECT_EQ(h.total(), 0u);
  EXPECT_TRUE(h.accumulator().empty());
  for (const double q : {0.0, 0.5, 1.0}) EXPECT_EQ(h.quantile(q), 0.0);
}

TEST(Histogram, NanIsCountedNotBinned) {
  Histogram h;
  h.add(kNan);
  h.add(-kNan);
  h.add(5.0);
  EXPECT_EQ(h.nan_count(), 2u);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
  // The accumulator sees only the ranked sample.
  EXPECT_EQ(h.accumulator().count(), 1u);
  EXPECT_EQ(h.accumulator().mean(), 5.0);
  EXPECT_EQ(h.quantile(0.5), 5.0);
}

TEST(Histogram, InfinitiesLandInOverflowBins) {
  Histogram h;
  h.add(kInf);
  h.add(-kInf);
  h.add(1.0);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.nan_count(), 0u);
  EXPECT_EQ(h.quantile(1.0), kInf);
  EXPECT_LE(std::fabs(h.quantile(0.5) - 1.0), kEpsilon);
}

TEST(Histogram, QuantileIgnoresNanMass) {
  Histogram h;
  for (int k = 0; k < 10; ++k) h.add(static_cast<double>(k) + 0.5);
  const double median_before = h.quantile(0.5);
  for (int k = 0; k < 100; ++k) h.add(kNan);
  // NaN samples have no rank; the quantile of the real data is
  // unchanged no matter how many arrive.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), median_before);
}

TEST(Histogram, QuantileOfAllNanReturnsZero) {
  // With zero ranked samples (total == nan_count) there is nothing to
  // rank, so every quantile is 0 -- as for an empty histogram, and
  // never NaN.
  Histogram h;
  for (int k = 0; k < 5; ++k) h.add(kNan);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.nan_count(), 5u);
  for (const double q : {0.0, 0.5, 1.0}) EXPECT_EQ(h.quantile(q), 0.0);
}

TEST(Histogram, MergeOfShardsEqualsOneHistogram) {
  const std::vector<double> samples = draw_samples(8000, 6, [](Rng& rng) {
    const double u = rng.uniform();
    if (u < 0.01) return kNan;
    if (u < 0.02) return 0.0;
    return std::exp(std::log(1e-7) + rng.uniform() * std::log(1e14));
  });
  Histogram whole;
  Histogram shards[8];
  for (std::size_t i = 0; i < samples.size(); ++i) {
    whole.add(samples[i]);
    shards[i % 8].add(samples[i]);
  }
  Histogram merged;
  merged.merge(Histogram{});  // an empty shard changes nothing
  for (const Histogram& shard : shards) merged.merge(shard);
  EXPECT_EQ(merged.total(), whole.total());
  EXPECT_EQ(merged.nan_count(), whole.nan_count());
  EXPECT_EQ(merged.underflow(), whole.underflow());
  EXPECT_EQ(merged.overflow(), whole.overflow());
  EXPECT_EQ(merged.accumulator().min(), whole.accumulator().min());
  EXPECT_EQ(merged.accumulator().max(), whole.accumulator().max());
  EXPECT_NEAR(merged.accumulator().mean(), whole.accumulator().mean(),
              1e-9 * std::fabs(whole.accumulator().mean()));
  for (int k = 0; k <= 100; ++k) {
    EXPECT_EQ(merged.quantile(k / 100.0), whole.quantile(k / 100.0))
        << "q=" << k / 100.0;
  }
}

TEST(Histogram, EmptyAllocatesNothing) {
  const std::uint64_t before = g_allocations;
  Histogram h;
  h.add(kNan);  // NaN is counted without buckets
  h.merge(Histogram{});
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(g_allocations, before);
  h.add(1.0);
  EXPECT_GT(g_allocations, before);
}

}  // namespace
}  // namespace vds::sim
