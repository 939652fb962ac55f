#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vds::sim {

/// Streaming mean/variance accumulator (Welford). O(1) memory.
class Accumulator {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// Standard error of the mean.
  [[nodiscard]] double sem() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

  /// Half-width of a Student-t confidence interval at the given
  /// two-sided confidence level (0.95 = 95%). Uses n-1 degrees of
  /// freedom; 0 for fewer than two samples (no variance estimate
  /// exists, matching sem()), and exactly 0 for zero-variance data.
  [[nodiscard]] double ci_halfwidth_t(double confidence = 0.95) const noexcept;

  /// Merges another accumulator (parallel Welford / Chan et al.).
  void merge(const Accumulator& other) noexcept;

  void reset() noexcept { *this = Accumulator{}; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Two-sided critical value of the standard normal distribution: the
/// z with P(|Z| <= z) = confidence (e.g. 0.95 -> 1.95996...). Requires
/// confidence in (0, 1); returns NaN outside it.
[[nodiscard]] double normal_critical(double confidence) noexcept;

/// Two-sided critical value of Student's t distribution with `dof`
/// degrees of freedom (e.g. confidence 0.95, dof 4 -> 2.77644...).
/// Converges to normal_critical for large dof. dof == 0 has no
/// distribution: returns +inf (an interval from one sample is
/// unbounded). Requires confidence in (0, 1); returns NaN outside it.
[[nodiscard]] double student_t_critical(double confidence,
                                        std::uint64_t dof) noexcept;

/// Log-linear histogram (the bucket layout of HdrHistogram,
/// hdrhistogram.org) for positive samples such as wall-clock
/// milliseconds. It takes no range: every binade [2^e, 2^(e+1)) for
/// e in [-20, 22) is cut into 32 equal sub-buckets, which covers
/// 2^-20 ~ 0.95e-6 to 2^22 ~ 4.2e6 (1 ns to 70 min when the unit is
/// ms). A quantile is the midpoint of the bucket holding the exact
/// nearest-rank order statistic, clamped to the observed [min, max],
/// so its relative error is at most epsilon = 1/64 ~ 1.6 %.
///
/// Samples below 2^-20 (zero, negatives, -inf) share an underflow
/// bucket valued 0; samples at or above 2^22 (+inf) share an overflow
/// bucket valued +inf; the clamp keeps both inside [min, max]. NaN
/// samples are counted (nan_count()) but carry no rank. An empty
/// histogram allocates nothing; the first ranked add allocates the
/// buckets (~11 KiB).
class Histogram {
 public:
  void add(double x);

  /// Adds `other`'s samples, as if each had been add()ed here.
  void merge(const Histogram& other);

  /// Every sample added, NaN included.
  [[nodiscard]] std::uint64_t total() const noexcept {
    return acc_.count() + nan_;
  }
  [[nodiscard]] std::uint64_t nan_count() const noexcept { return nan_; }
  [[nodiscard]] std::uint64_t underflow() const noexcept;
  [[nodiscard]] std::uint64_t overflow() const noexcept;

  /// Exact moments, min and max of the ranked (non-NaN) samples.
  [[nodiscard]] const Accumulator& accumulator() const noexcept {
    return acc_;
  }

  /// The q-quantile (q clamped to [0, 1]) of the ranked samples: the
  /// ceil(q * n)-th smallest (the first for q = 0), within epsilon.
  /// 0 when there is no ranked sample.
  [[nodiscard]] double quantile(double q) const noexcept;

 private:
  std::vector<std::uint64_t> counts_;  // underflow, log-linear, overflow
  std::uint64_t nan_ = 0;
  Accumulator acc_;  // of the ranked samples
};

}  // namespace vds::sim
