#include "model/surface.hpp"

#include <algorithm>
#include <iomanip>
#include <stdexcept>
#include <vector>

#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"

namespace vds::model {

double Axis::at(std::size_t i) const noexcept {
  if (n <= 1) return lo;
  return lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1);
}

GainSurface::GainSurface(Axis alpha, Axis beta, double p, int s,
                         runtime::ThreadPool* pool)
    : alpha_(alpha), beta_(beta) {
  if (alpha_.n == 0 || beta_.n == 0) {
    throw std::invalid_argument("GainSurface: empty axis");
  }
  values_.resize(alpha_.n * beta_.n);

  // Each cell is a pure function of its grid point, so rows can fill
  // in any order; min/max reduce per alpha-row and fold in row order,
  // keeping the result independent of the work decomposition.
  const auto fill_row = [this, p, s](std::size_t ai, double& row_min,
                                     double& row_max) {
    for (std::size_t bi = 0; bi < beta_.n; ++bi) {
      const Params params =
          Params::with_beta(alpha_.at(ai), beta_.at(bi), s, p);
      const double g = mean_gain_corr(params);
      values_[ai * beta_.n + bi] = g;
      if (bi == 0) {
        row_min = row_max = g;
      } else {
        row_min = std::min(row_min, g);
        row_max = std::max(row_max, g);
      }
    }
  };

  std::vector<double> row_min(alpha_.n);
  std::vector<double> row_max(alpha_.n);
  if (pool != nullptr && pool->size() > 1 && alpha_.n > 1) {
    runtime::parallel_blocks(
        *pool, alpha_.n, 1,
        [&fill_row, &row_min, &row_max](std::size_t lo, std::size_t hi) {
          for (std::size_t ai = lo; ai < hi; ++ai) {
            fill_row(ai, row_min[ai], row_max[ai]);
          }
        });
  } else {
    for (std::size_t ai = 0; ai < alpha_.n; ++ai) {
      fill_row(ai, row_min[ai], row_max[ai]);
    }
  }

  min_ = row_min[0];
  max_ = row_max[0];
  for (std::size_t ai = 1; ai < alpha_.n; ++ai) {
    min_ = std::min(min_, row_min[ai]);
    max_ = std::max(max_, row_max[ai]);
  }
}

double GainSurface::at(std::size_t ai, std::size_t bi) const {
  if (ai >= alpha_.n || bi >= beta_.n) {
    throw std::out_of_range("GainSurface::at");
  }
  return values_[ai * beta_.n + bi];
}

void GainSurface::write_matrix(std::ostream& os) const {
  const auto flags = os.flags();
  os << std::fixed << std::setprecision(4);
  os << "alpha\\beta";
  for (std::size_t bi = 0; bi < beta_.n; ++bi) {
    os << '\t' << beta_.at(bi);
  }
  os << '\n';
  for (std::size_t ai = 0; ai < alpha_.n; ++ai) {
    os << alpha_.at(ai);
    for (std::size_t bi = 0; bi < beta_.n; ++bi) {
      os << '\t' << at(ai, bi);
    }
    os << '\n';
  }
  os.flags(flags);
}

void GainSurface::write_csv(std::ostream& os) const {
  const auto flags = os.flags();
  os << std::fixed << std::setprecision(6);
  os << "alpha,beta,gain\n";
  for (std::size_t ai = 0; ai < alpha_.n; ++ai) {
    for (std::size_t bi = 0; bi < beta_.n; ++bi) {
      os << alpha_.at(ai) << ',' << beta_.at(bi) << ',' << at(ai, bi)
         << '\n';
    }
  }
  os.flags(flags);
}

}  // namespace vds::model
