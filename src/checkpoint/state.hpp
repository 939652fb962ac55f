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
class VersionState {
 public:
  /// Creates the canonical initial state for a given job seed.
  /// All versions of the same job start from the same state.
  VersionState(std::uint64_t job_seed, std::size_t words);

  VersionState() = default;

  /// Advances the state by one round of "computation": a deterministic,
  /// invertibility-free mixing of every word with the round index.
  /// Diverse versions use a per-version `diversity_salt` that changes
  /// *how* the state is computed but not *what* it represents: the
  /// comparison below is performed on the canonical digest, which is
  /// salt-independent for fault-free execution.
  void advance_round(std::uint64_t round_index) noexcept;

  /// Injects a transient fault: flips bit `bit` of word `word`
  /// (both reduced modulo the respective sizes).
  void flip_bit(std::size_t word, unsigned bit) noexcept;

  /// 64-bit FNV-1a digest of the full state. Two states are "equal" for
  /// the VDS comparison iff their digests match; fault::states_match()
  /// decides that with equals() first and digests only on a difference.
  [[nodiscard]] std::uint64_t digest() const noexcept;

  /// Exact word-for-word comparison.
  [[nodiscard]] bool equals(const VersionState& other) const noexcept;

  [[nodiscard]] std::size_t words() const noexcept { return data_.size(); }
  [[nodiscard]] std::uint64_t word(std::size_t i) const {
    return data_.at(i);
  }
  [[nodiscard]] const std::vector<std::uint64_t>& data() const noexcept {
    return data_;
  }

  /// Number of rounds this state has advanced through.
  [[nodiscard]] std::uint64_t rounds_applied() const noexcept {
    return rounds_applied_;
  }

  friend bool operator==(const VersionState& a,
                         const VersionState& b) noexcept {
    return a.equals(b);
  }

 private:
  std::vector<std::uint64_t> data_;
  std::uint64_t rounds_applied_ = 0;
};

}  // namespace vds::checkpoint
