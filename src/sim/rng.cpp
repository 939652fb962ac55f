#include "sim/rng.hpp"

#include <cmath>

namespace vds::sim {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  seed_ = seed;
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::uniform_index(std::uint64_t n) noexcept {
  if (n == 0) return 0;
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % n;
  }
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::exponential(double lambda) noexcept {
  // -log(1-u) with u in [0,1) keeps the argument strictly positive.
  return -std::log1p(-uniform()) / lambda;
}

Rng Rng::split(std::uint64_t tag) noexcept {
  Rng child;
  child.reseed(next() ^ (tag * 0x9e3779b97f4a7c15ull) ^ 0xd1b54a32d192ed03ull);
  return child;
}

Rng Rng::substream(std::uint64_t stream_id) const noexcept {
  // The child's seed is derived from the stream_id-th state of a
  // SplitMix64 sequence anchored at the base seed. Two scramble
  // rounds so that adjacent stream ids land far apart.
  std::uint64_t state = seed_ + stream_id * 0x9e3779b97f4a7c15ull;
  std::uint64_t derived = splitmix64(state);
  derived ^= splitmix64(state);
  Rng child;
  child.reseed(derived);
  return child;
}

}  // namespace vds::sim
