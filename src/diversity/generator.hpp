#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "smt/machine.hpp"
#include "smt/program.hpp"

namespace vds::diversity {

/// Which transforms a generated variant applies, with intensities.
/// The defaults give "full" systematic diversity.
struct Recipe {
  bool commute = true;
  bool strength = true;
  bool rename = true;
  bool reorder = true;
  bool pad = true;
  double commute_prob = 1.0;
  double strength_prob = 1.0;
  double reorder_prob = 0.5;
  double pad_density = 0.08;
  std::vector<std::uint8_t> pinned_registers;
};

/// Diversity level presets used by the coverage experiment (E14).
[[nodiscard]] Recipe recipe_none();       ///< identical copy
[[nodiscard]] Recipe recipe_light();      ///< commutation only
[[nodiscard]] Recipe recipe_medium();     ///< + strength reduction
[[nodiscard]] Recipe recipe_full();       ///< everything

/// Automatic diverse-version generation in the spirit of Jochim [4]:
/// derives semantically equivalent variants of a base program by
/// composing systematic-diversity transforms.
class Generator {
 public:
  explicit Generator(vds::sim::Rng rng) : rng_(rng) {}

  /// Produces one variant according to the recipe.
  [[nodiscard]] vds::smt::Program variant(const vds::smt::Program& base,
                                          const Recipe& recipe);

 private:
  vds::sim::Rng rng_;
};

/// Checks that two programs compute the same output-region digest on a
/// fresh machine (memory seeded by `seed_memory` values, if any).
struct EquivalenceCheck {
  std::uint64_t output_base = 0;
  std::size_t output_len = 0;
  std::size_t memory_words = 4096;
  std::uint64_t max_steps = 1u << 22;
};

/// Runs both programs on identical fresh machines seeded by `seeder`
/// and compares output digests. Returns true iff both halt and agree.
template <typename Seeder>
[[nodiscard]] bool equivalent(const vds::smt::Program& a,
                              const vds::smt::Program& b,
                              const EquivalenceCheck& check, Seeder&& seeder) {
  vds::smt::Machine ma(check.memory_words);
  vds::smt::Machine mb(check.memory_words);
  seeder(ma);
  seeder(mb);
  const auto ra = ma.run(a, check.max_steps);
  const auto rb = mb.run(b, check.max_steps);
  if (!ra.halted || !rb.halted) return false;
  return ma.region_digest(check.output_base, check.output_len) ==
         mb.region_digest(check.output_base, check.output_len);
}

/// Structural diversity metrics between two programs.
struct DiversityMetrics {
  std::size_t edit_distance = 0;
  double normalized_edit_distance = 0.0;  ///< / max(size_a, size_b)
  /// L1 distance between the op-class usage histograms, normalized.
  double class_mix_distance = 0.0;
};

[[nodiscard]] DiversityMetrics measure_diversity(const vds::smt::Program& a,
                                                 const vds::smt::Program& b);

}  // namespace vds::diversity
