#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vds::checkpoint {

/// The state a version carries between rounds. In the real system this
/// is the process image; here it is a word vector that evolves through
/// a deterministic per-round mixing function, so that (a) two fault-free
/// versions that executed the same rounds have identical state, (b) a
/// single injected bit flip diverges the state for all later rounds,
/// and (c) states can be compared/digested cheaply -- exactly the
/// properties the VDS protocol relies on.
///
/// Clean tags. A fault-free state's words are a pure function of
/// (job seed, words, round), so a state built by the seeded constructor
/// (or golden()) and advanced only with the next golden round index
/// carries no words at all: it is a *clean tag*. Advancing a tag to the
/// next round and comparing two tags of the same round are O(1).
/// Anything else -- flip_bit(), another round index, digest(),
/// data(), a compare against a dirty state -- first materializes
/// the words from a process-wide golden table (one snapshot per 64
/// rounds per (seed, words), extended under a mutex) and then behaves
/// exactly like an eager state. A clean state drops materialized words
/// again on its next golden round. Like a std::vector, one state must
/// not be used from two threads at once, const calls included.
class VersionState {
 public:
  /// Creates the canonical initial state for a given job seed.
  /// All versions of the same job start from the same state.
  VersionState(std::uint64_t job_seed, std::size_t words);

  VersionState() = default;

  /// The fault-free state of (job_seed, words) after `round` rounds: a
  /// clean tag, equal to the seeded state advanced through rounds
  /// 1..round.
  [[nodiscard]] static VersionState golden(std::uint64_t job_seed,
                                           std::size_t words,
                                           std::uint64_t round);

  /// Advances the state by one round of "computation": a deterministic,
  /// invertibility-free mixing of every word with the round index.
  void advance_round(std::uint64_t round_index) noexcept {
    if (clean_ && round_index == rounds_applied_ + 1) {
      materialized_ = false;
      ++rounds_applied_;
      return;
    }
    advance_words(round_index);
  }

  /// Injects a transient fault: flips bit `bit` of word `word`
  /// (both reduced modulo the respective sizes).
  void flip_bit(std::size_t word, unsigned bit) noexcept;

  /// 64-bit FNV-1a digest of the full state. Two states are "equal" for
  /// the VDS comparison iff their digests match; fault::states_match()
  /// decides that with equals() first and digests only on a difference.
  [[nodiscard]] std::uint64_t digest() const noexcept;

  /// Exact word-for-word comparison.
  [[nodiscard]] bool equals(const VersionState& other) const noexcept {
    if (clean_ && other.clean_ && rounds_applied_ == other.rounds_applied_ &&
        seed_ == other.seed_ && words_ == other.words_) {
      return true;
    }
    return equal_words(other);
  }

  [[nodiscard]] const std::vector<std::uint64_t>& data() const noexcept {
    if (!materialized_) materialize();
    return data_;
  }

  /// True while the state is known to hold the fault-free words of its
  /// (seed, words) after the rounds it has advanced through,
  /// materialized or not.
  [[nodiscard]] bool clean() const noexcept { return clean_; }

 private:
  void advance_words(std::uint64_t round_index) noexcept;
  void materialize() const noexcept;
  [[nodiscard]] bool equal_words(const VersionState& other) const noexcept;

  std::uint64_t seed_ = 0;
  std::uint64_t rounds_applied_ = 0;
  std::size_t words_ = 0;
  bool clean_ = false;
  /// False while data_ is stale and the state is a bare clean tag.
  mutable bool materialized_ = true;
  mutable std::vector<std::uint64_t> data_;
};

}  // namespace vds::checkpoint
