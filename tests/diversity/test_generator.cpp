#include "diversity/generator.hpp"

#include <gtest/gtest.h>

#include "diversity/transforms.hpp"
#include "smt/workload.hpp"

namespace vds::diversity {
namespace {

using vds::smt::Machine;
using vds::smt::Program;

constexpr std::uint64_t kBase = 200;
constexpr std::uint64_t kN = 16;

Program kernel() { return vds::smt::make_kernel_program(kBase, kN); }

void seed(Machine& machine) {
  vds::smt::seed_kernel_inputs(machine, kBase, kN, 5);
}

EquivalenceCheck check() {
  EquivalenceCheck ec;
  ec.output_base = kBase + kN;
  ec.output_len = kN + 1;
  return ec;
}

TEST(Recipes, NoneIsIdentity) {
  Generator generator{vds::sim::Rng(1)};
  const Program variant = generator.variant(kernel(), recipe_none());
  EXPECT_EQ(variant.code(), kernel().code());
}

TEST(Recipes, EscalatingLevelsEscalateDiversity) {
  Generator g1{vds::sim::Rng(2)};
  Generator g2{vds::sim::Rng(2)};
  Generator g3{vds::sim::Rng(2)};
  const auto light = g1.variant(kernel(), recipe_light());
  const auto medium = g2.variant(kernel(), recipe_medium());
  const auto full = g3.variant(kernel(), recipe_full());
  const auto d_light = measure_diversity(kernel(), light);
  const auto d_medium = measure_diversity(kernel(), medium);
  const auto d_full = measure_diversity(kernel(), full);
  EXPECT_LE(d_light.edit_distance, d_medium.edit_distance);
  EXPECT_LT(d_medium.edit_distance, d_full.edit_distance);
}

TEST(Generator, VariantsAreEquivalentToBase) {
  Generator generator{vds::sim::Rng(3)};
  for (int k = 0; k < 5; ++k) {
    const auto variant = generator.variant(kernel(), recipe_full());
    EXPECT_TRUE(equivalent(kernel(), variant, check(), seed));
  }
}

TEST(Generator, VariantsDifferFromEachOther) {
  Generator generator{vds::sim::Rng(4)};
  const std::vector<vds::smt::Program> variants = {
      generator.variant(kernel(), recipe_full()),
      generator.variant(kernel(), recipe_full()),
      generator.variant(kernel(), recipe_full())};
  EXPECT_GT(variants[0].edit_distance(variants[1]), 0u);
  EXPECT_GT(variants[1].edit_distance(variants[2]), 0u);
}

TEST(Metrics, IdenticalProgramsScoreZero) {
  const auto metrics = measure_diversity(kernel(), kernel());
  EXPECT_EQ(metrics.edit_distance, 0u);
  EXPECT_DOUBLE_EQ(metrics.normalized_edit_distance, 0.0);
  EXPECT_DOUBLE_EQ(metrics.class_mix_distance, 0.0);
}

TEST(Metrics, StrengthReductionShowsUpInClassMix) {
  // Rewriting mul<->shl moves instructions between FU classes.
  vds::sim::Rng rng(5);
  const Program variant = strength_reduce(kernel(), rng, 1.0);
  const auto metrics = measure_diversity(kernel(), variant);
  EXPECT_GT(metrics.class_mix_distance, 0.0);
}

TEST(Metrics, NormalizedDistanceBounded) {
  Generator generator{vds::sim::Rng(6)};
  const auto variant = generator.variant(kernel(), recipe_full());
  const auto metrics = measure_diversity(kernel(), variant);
  EXPECT_GT(metrics.normalized_edit_distance, 0.0);
  EXPECT_LE(metrics.normalized_edit_distance, 1.0);
}

TEST(Equivalent, DetectsNonEquivalentPrograms) {
  Program broken = kernel();
  // Corrupt the multiplier constant: outputs change.
  for (auto& instr : broken.code()) {
    if (instr.op == vds::smt::Opcode::kMul) instr.imm = 4;
  }
  EXPECT_FALSE(equivalent(kernel(), broken, check(), seed));
}

TEST(Equivalent, DetectsNonHaltingPrograms) {
  Program spin("spin");
  spin.push(vds::smt::make_jmp(0));
  EquivalenceCheck ec = check();
  ec.max_steps = 1000;
  EXPECT_FALSE(equivalent(kernel(), spin, ec, seed));
}

}  // namespace
}  // namespace vds::diversity
