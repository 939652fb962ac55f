#pragma once

// Exact order statistics over raw samples. Every percentile the
// benchmark reports comes from here, never from a binned histogram.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Exact q-quantile (0 <= q <= 1) of `samples`, interpolating linearly
/// between adjacent order statistics (the "type 7" definition used by
/// numpy and R by default). Throws on an empty sample set.
inline double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("quantile of no samples");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("q outside [0,1]");
  std::sort(samples.begin(), samples.end());
  const double h = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (h - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Samples that lie strictly above the q-quantile: the guide's "at
/// least ten samples beyond" rule for a reported tail percentile.
inline std::size_t samples_beyond(const std::vector<double>& samples,
                                  double q) {
  if (samples.empty()) return 0;
  const double cut = quantile(samples, q);
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [cut](double x) { return x > cut; }));
}

/// The quantile to report as a tail over `n` samples: 0.99 when at
/// least ten samples lie beyond it (n >= 1000), else 1 - 10/n, and
/// never below the median.
inline double tail_quantile(std::size_t n) {
  if (n == 0) return 0.5;
  return std::clamp(1.0 - 10.0 / static_cast<double>(n), 0.5, 0.99);
}

/// splitmix64: derives independent 64-bit values from the workload
/// seed, so every generated input is a pure function of --seed.
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// A seed derived from (workload seed, stream, index), kept below 2^53
/// so it survives any JSON reader unchanged.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                                 std::uint64_t index = 0) {
  return (mix(mix(seed ^ mix(stream)) + index) >> 11) | 1;
}

}  // namespace perfbench
