#include "smt/program.hpp"

#include <algorithm>

namespace vds::smt {

std::vector<std::size_t> Program::class_histogram() const {
  std::vector<std::size_t> histogram(6, 0);
  for (const auto& instr : code_) {
    histogram[static_cast<std::size_t>(op_class(instr.op))]++;
  }
  return histogram;
}

std::size_t Program::edit_distance(const Program& other) const {
  const auto& a = code_;
  const auto& b = other.code_;
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  std::vector<std::size_t> prev(m + 1);
  std::vector<std::size_t> curr(m + 1);
  for (std::size_t j = 0; j <= m; ++j) prev[j] = j;
  for (std::size_t i = 1; i <= n; ++i) {
    curr[0] = i;
    for (std::size_t j = 1; j <= m; ++j) {
      const std::size_t subst_cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1,
                          prev[j - 1] + subst_cost});
    }
    std::swap(prev, curr);
  }
  return prev[m];
}

}  // namespace vds::smt
