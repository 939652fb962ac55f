#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace vds::sim {

/// Deterministic, seedable PRNG (xoshiro256** with SplitMix64 seeding).
///
/// Self-contained so that simulation results are reproducible across
/// standard libraries (std::mt19937 streams are portable, but the std::
/// distributions are not). Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

  void reseed(std::uint64_t seed);

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }
  std::uint64_t next() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform integer in [0, n). Unbiased (rejection sampling). n > 0.
  std::uint64_t uniform_index(std::uint64_t n) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Exponentially distributed variate with rate lambda > 0
  /// (mean 1/lambda). Used for Poisson fault inter-arrival times.
  double exponential(double lambda) noexcept;

  /// Splits off an independently seeded child stream. Children derived
  /// with distinct tags are statistically independent.
  [[nodiscard]] Rng split(std::uint64_t tag) noexcept;

  /// Derives the `stream_id`-th deterministic substream. Unlike
  /// `split()`, the result is a pure function of (seed, stream_id):
  /// it does not consume or depend on this generator's position, so
  /// work distributed over substreams is bitwise reproducible no
  /// matter which thread — or in which order — each stream is drawn.
  /// Distinct stream ids yield statistically independent streams
  /// (SplitMix64 sequence anchored at the seed).
  [[nodiscard]] Rng substream(std::uint64_t stream_id) const noexcept;

  /// The seed this generator was last (re)seeded with.
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  std::uint64_t seed_ = 0;
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace vds::sim
