#pragma once

#include <cstdint>

#include "checkpoint/state.hpp"

namespace vds::fault {

/// Outcome of an end-of-round state comparison.
enum class CompareOutcome : std::uint8_t {
  kMatch,     ///< states identical: no (effective) fault this interval
  kMismatch,  ///< states differ: fault detected, identity unknown
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

}  // namespace vds::fault
