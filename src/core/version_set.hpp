#pragma once

#include <cstdint>
#include <optional>

#include "checkpoint/state.hpp"
#include "core/options.hpp"

namespace vds::core {

/// Round-level execution substrate shared by both engines: advances
/// version states deterministically, applies permanent-fault corruption
/// and maintains a fault-free golden reference for end-of-run silent-
/// corruption checks.
///
/// Determinism contract: the fault-free state after N rounds is a pure
/// function of (job_seed, N); any replay (the v3 retry, a roll-forward
/// re-execution, a rollback) that advances through the same round
/// indices reproduces the same state. That is exactly the property the
/// VDS comparison/vote relies on.
class VersionSet {
 public:
  explicit VersionSet(const VdsOptions& options);

  /// The canonical initial state.
  [[nodiscard]] vds::checkpoint::VersionState initial_state() const;

  /// Advances `state` through one round with global index `round_index`
  /// (1-based), as executed by `version_id` (1, 2 or 3). If a permanent
  /// fault is active, the version's result is additionally corrupted --
  /// differently per version when the fault is exposed by diversity,
  /// identically otherwise (the dangerous case).
  void advance(vds::checkpoint::VersionState& state,
               std::uint64_t round_index, int version_id) const;

  /// Activates a permanent hardware fault in unit `location`.
  /// `affected_mask` says which versions actually exercise the broken
  /// unit (bit 0 = version 1, bit 1 = version 2, bit 2 = version 3):
  /// systematic diversity makes the versions use the hardware
  /// differently, so a broken unit typically corrupts only some of
  /// them -- the versions that avoid it can carry the system (§1, [6]).
  /// `exposed` = false models a fault that corrupts the affected
  /// versions *identically* (diversity failed): undetectable.
  void set_permanent(std::uint32_t location, bool exposed,
                     std::uint8_t affected_mask = 0b111) noexcept;
  [[nodiscard]] bool permanent_active() const noexcept {
    return permanent_.has_value();
  }
  [[nodiscard]] bool permanent_exposed() const noexcept {
    return permanent_ && permanent_->exposed;
  }
  [[nodiscard]] bool permanent_affects(int version_id) const noexcept {
    return permanent_ &&
           (permanent_->affected_mask >> (version_id - 1)) & 1u;
  }

  /// Golden fault-free state after `round` rounds, as a clean tag.
  /// Must be called with non-decreasing `round` values.
  [[nodiscard]] const vds::checkpoint::VersionState& golden_at(
      std::uint64_t round);

 private:
  struct Permanent {
    std::uint32_t location = 0;
    bool exposed = true;
    std::uint8_t affected_mask = 0b111;
  };

  VdsOptions options_;
  std::optional<Permanent> permanent_;
  vds::checkpoint::VersionState golden_;
  std::uint64_t golden_round_ = 0;
};

}  // namespace vds::core
