#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
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

/// Fixed-width histogram over [lo, hi) with overflow/underflow bins.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;

  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t bin_count(std::size_t i) const;
  [[nodiscard]] std::uint64_t underflow() const noexcept { return under_; }
  [[nodiscard]] std::uint64_t overflow() const noexcept { return over_; }
  /// NaN samples; -inf/+inf count as underflow/overflow.
  [[nodiscard]] std::uint64_t nan_count() const noexcept { return nan_; }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] double bin_lo(std::size_t i) const;

  /// Approximate quantile (q in [0,1]) by linear interpolation within
  /// the containing bin. Underflow/overflow mass sits at lo/hi. NaN
  /// samples land in their own bucket (see nan_count()) and carry no
  /// rank: quantiles are computed over the total() - nan_count()
  /// ranked samples, and a histogram holding only NaN samples returns
  /// lo for every q.
  [[nodiscard]] double quantile(double q) const;

  /// Renders a compact ASCII summary, one bin per line.
  [[nodiscard]] std::string to_string(std::size_t bar_width = 40) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t under_ = 0;
  std::uint64_t over_ = 0;
  std::uint64_t nan_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace vds::sim
