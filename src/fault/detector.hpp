#pragma once

#include <cstdint>
#include <optional>

#include "checkpoint/state.hpp"

namespace vds::fault {

/// Outcome of an end-of-round state comparison.
enum class CompareOutcome : std::uint8_t {
  kMatch,     ///< states identical: no (effective) fault this interval
  kMismatch,  ///< states differ: fault detected, identity unknown
};

/// Outcome of a 2-out-of-3 majority vote among states P (version 1),
/// Q (version 2) and S (retried version 3).
enum class VoteOutcome : std::uint8_t {
  kVersion1Faulty,  ///< Q == S != P
  kVersion2Faulty,  ///< P == S != Q
  kNoMajority,      ///< all three differ: fault during retry, or a
                    ///< permanent fault defeating diversity -> rollback
  kAllAgree,        ///< P == Q == S (vote called without a real fault)
};

/// The one state-comparison rule of every engine: two states match iff
/// their digests match. Equal words imply equal digests, so the exact
/// word compare answers the common (fault-free) case and the digest is
/// computed only when the words differ. The outcome is therefore that
/// of the pure digest rule in every case, a digest collision included.
[[nodiscard]] inline bool states_match(
    const vds::checkpoint::VersionState& a,
    const vds::checkpoint::VersionState& b) noexcept {
  return a.equals(b) || a.digest() == b.digest();
}

/// End-of-round state comparison (what the VDS performs each round),
/// by states_match().
[[nodiscard]] CompareOutcome compare_states(
    const vds::checkpoint::VersionState& a,
    const vds::checkpoint::VersionState& b) noexcept;

/// Majority vote over the three candidate states, by states_match().
[[nodiscard]] VoteOutcome majority_vote(
    const vds::checkpoint::VersionState& p,
    const vds::checkpoint::VersionState& q,
    const vds::checkpoint::VersionState& s) noexcept;

/// Statistics a detector accumulates across a run.
struct DetectionStats {
  std::uint64_t comparisons = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t votes = 0;
  std::uint64_t no_majority = 0;
};

}  // namespace vds::fault
