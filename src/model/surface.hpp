#pragma once

#include <cstddef>
#include <ostream>
#include <vector>

#include "model/gain.hpp"
#include "model/params.hpp"

namespace vds::runtime {
class ThreadPool;
}  // namespace vds::runtime

namespace vds::model {

/// A uniformly spaced axis [lo, hi] with n >= 1 samples (n == 1 pins lo).
struct Axis {
  double lo = 0.0;
  double hi = 1.0;
  std::size_t n = 11;

  [[nodiscard]] double at(std::size_t i) const noexcept;
};

/// Dense (alpha, beta) grid of the expected correction gain
/// mean_gain_corr -- the quantity plotted in the paper's Figures 4
/// (p = 0.5) and 5 (p = 1.0), computed from the exact equations
/// (10)-(14) with a finite checkpoint interval s (paper uses s = 20).
class GainSurface {
 public:
  /// Evaluates the grid. With a pool of more than one worker the
  /// alpha-rows fill in parallel; every cell is a pure function of
  /// its grid point and min/max fold in canonical row order, so the
  /// surface (and its CSV) is bit-identical for any pool size.
  GainSurface(Axis alpha, Axis beta, double p, int s,
              runtime::ThreadPool* pool = nullptr);

  [[nodiscard]] double at(std::size_t ai, std::size_t bi) const;

  [[nodiscard]] double min_gain() const noexcept { return min_; }
  [[nodiscard]] double max_gain() const noexcept { return max_; }

  /// Writes the surface as a gnuplot-style matrix: header row of betas,
  /// then one row per alpha.
  void write_matrix(std::ostream& os) const;

  /// Writes long-format CSV: alpha,beta,gain.
  void write_csv(std::ostream& os) const;

 private:
  Axis alpha_;
  Axis beta_;
  std::vector<double> values_;  // row-major: [ai * beta_.n + bi]
  double min_ = 0.0;
  double max_ = 0.0;
};

/// One-dimensional sweep helper: evaluates f over an axis, producing
/// (x, f(x)) pairs. Used by the bench harnesses for the eq-(4)/(7)/(8)
/// series.
struct SweepPoint {
  double x = 0.0;
  double y = 0.0;
};

template <typename F>
[[nodiscard]] std::vector<SweepPoint> sweep(const Axis& axis, F&& f) {
  std::vector<SweepPoint> out;
  out.reserve(axis.n);
  for (std::size_t i = 0; i < axis.n; ++i) {
    const double x = axis.at(i);
    out.push_back(SweepPoint{x, f(x)});
  }
  return out;
}

}  // namespace vds::model
