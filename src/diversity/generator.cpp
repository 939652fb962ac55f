#include "diversity/generator.hpp"

#include <algorithm>
#include <cmath>

#include "diversity/transforms.hpp"

namespace vds::diversity {

Recipe recipe_none() {
  Recipe recipe;
  recipe.commute = recipe.strength = recipe.rename = recipe.reorder =
      recipe.pad = false;
  return recipe;
}

Recipe recipe_light() {
  Recipe recipe = recipe_none();
  recipe.commute = true;
  return recipe;
}

Recipe recipe_medium() {
  Recipe recipe = recipe_light();
  recipe.strength = true;
  recipe.reorder = true;
  return recipe;
}

Recipe recipe_full() { return Recipe{}; }

vds::smt::Program Generator::variant(const vds::smt::Program& base,
                                     const Recipe& recipe) {
  vds::smt::Program out = base;
  if (recipe.commute) out = commute_operands(out, rng_, recipe.commute_prob);
  if (recipe.strength) out = strength_reduce(out, rng_, recipe.strength_prob);
  if (recipe.reorder) out = reorder_independent(out, rng_, recipe.reorder_prob);
  if (recipe.pad) out = insert_neutral_ops(out, rng_, recipe.pad_density);
  if (recipe.rename) out = permute_registers(out, rng_, recipe.pinned_registers);
  out.set_name(base.name() + "#variant");
  return out;
}

DiversityMetrics measure_diversity(const vds::smt::Program& a,
                                   const vds::smt::Program& b) {
  DiversityMetrics metrics;
  metrics.edit_distance = a.edit_distance(b);
  const double denom = static_cast<double>(std::max(a.size(), b.size()));
  metrics.normalized_edit_distance =
      denom == 0.0 ? 0.0 : static_cast<double>(metrics.edit_distance) / denom;

  const auto ha = a.class_histogram();
  const auto hb = b.class_histogram();
  double l1 = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < ha.size(); ++i) {
    l1 += std::fabs(static_cast<double>(ha[i]) - static_cast<double>(hb[i]));
    total += static_cast<double>(ha[i]) + static_cast<double>(hb[i]);
  }
  metrics.class_mix_distance = total == 0.0 ? 0.0 : l1 / total;
  return metrics;
}

}  // namespace vds::diversity
