#include "checkpoint/state.hpp"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <map>
#include <mutex>
#include <utility>

namespace vds::checkpoint {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Rounds between two snapshots of the golden table.
constexpr std::uint64_t kSnapshotStride = 64;

std::uint64_t mix(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

void seed_words(std::uint64_t job_seed, std::uint64_t* words,
                std::size_t n) noexcept {
  std::uint64_t x = job_seed ^ 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < n; ++i) {
    x = mix(x + 0x2545f4914f6cdd1dull);
    words[i] = x;
  }
}

void mix_round(std::uint64_t* words, std::size_t n,
               std::uint64_t round_index) noexcept {
  // Every word depends on its predecessor and the round index, so any
  // earlier single-bit corruption propagates through all later rounds
  // (no silent self-healing).
  std::uint64_t carry = mix(round_index + 0x5851f42d4c957f2dull);
  for (std::size_t i = 0; i < n; ++i) {
    words[i] = mix(words[i] ^ carry);
    carry = words[i];
  }
}

/// Process-wide fault-free trajectories: per (seed, words), the golden
/// words after rounds 0, 64, 128, ... back to back, extended on demand.
/// A deque grows block by block, so the table never holds much more
/// than its snapshots.
struct GoldenTable {
  std::mutex mutex;
  std::map<std::pair<std::uint64_t, std::size_t>, std::deque<std::uint64_t>>
      snapshots;
};

GoldenTable& golden_table() {
  // Leaked, like metrics::registry(): a thread still running at exit
  // (an abandoned watchdog attempt) must never see it destroyed.
  static auto* table = new GoldenTable;
  return *table;
}

/// Writes the golden words of (seed, n) after `round` rounds to `out`.
void load_golden(std::uint64_t seed, std::size_t n, std::uint64_t round,
                 std::uint64_t* out) {
  // A fault materializes several states of one round in a row (the
  // victim, the version it is compared with, the retry): this thread's
  // last answer serves the repeats without the lock or the mixing.
  thread_local struct {
    std::uint64_t seed = 0;
    std::uint64_t round = 0;
    std::vector<std::uint64_t> words;
  } last;
  if (last.words.size() == n && last.seed == seed && last.round == round) {
    std::copy_n(last.words.data(), n, out);
    return;
  }
  const std::uint64_t k = round / kSnapshotStride;
  {
    GoldenTable& table = golden_table();
    const std::lock_guard<std::mutex> lock(table.mutex);
    std::deque<std::uint64_t>& flat = table.snapshots[{seed, n}];
    if (flat.empty()) {
      seed_words(seed, out, n);
      flat.assign(out, out + n);
    }
    for (std::uint64_t have = flat.size() / n; have <= k; ++have) {
      std::copy(flat.end() - static_cast<std::ptrdiff_t>(n), flat.end(), out);
      for (std::uint64_t r = (have - 1) * kSnapshotStride + 1;
           r <= have * kSnapshotStride; ++r) {
        mix_round(out, n, r);
      }
      flat.insert(flat.end(), out, out + n);
    }
    std::copy_n(flat.begin() + static_cast<std::ptrdiff_t>(k * n), n, out);
  }
  for (std::uint64_t r = k * kSnapshotStride + 1; r <= round; ++r) {
    mix_round(out, n, r);
  }
  last.seed = seed;
  last.round = round;
  last.words.assign(out, out + n);
}

}  // namespace

VersionState::VersionState(std::uint64_t job_seed, std::size_t words)
    : seed_(job_seed), words_(words == 0 ? 1 : words), clean_(true),
      materialized_(false) {}

VersionState VersionState::golden(std::uint64_t job_seed, std::size_t words,
                                  std::uint64_t round) {
  VersionState state(job_seed, words);
  state.rounds_applied_ = round;
  return state;
}

void VersionState::materialize() const noexcept {
  data_.resize(words_);
  load_golden(seed_, words_, rounds_applied_, data_.data());
  materialized_ = true;
}

void VersionState::advance_words(std::uint64_t round_index) noexcept {
  // A dirty state, or a clean one advanced to another round index:
  // either way, off the golden trajectory.
  if (!materialized_) materialize();
  clean_ = false;
  mix_round(data_.data(), data_.size(), round_index);
  ++rounds_applied_;
}

void VersionState::flip_bit(std::size_t word, unsigned bit) noexcept {
  if (words_ == 0) return;
  if (!materialized_) materialize();
  clean_ = false;
  data_[word % data_.size()] ^= (1ull << (bit % 64u));
}

std::uint64_t VersionState::digest() const noexcept {
  std::uint64_t h = kFnvOffset;
  for (const auto word : data()) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffull;
      h *= kFnvPrime;
    }
  }
  return h;
}

bool VersionState::equal_words(const VersionState& other) const noexcept {
  return words_ == other.words_ && data() == other.data();
}

}  // namespace vds::checkpoint
