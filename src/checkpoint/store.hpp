#pragma once

#include <cstdint>
#include <optional>

#include "checkpoint/state.hpp"
#include "sim/time.hpp"

namespace vds::checkpoint {

/// A checkpoint: the agreed version state at the end of a round.
struct Checkpoint {
  std::uint64_t round = 0;  ///< global round index the state is valid at
  VersionState state;
  vds::sim::SimTime saved_at = 0.0;
};

/// In-memory model of stable checkpoint storage. Recovery always
/// restarts from the last checkpoint, so that is the one it keeps. The
/// memory-protection assumption of paper §2.1 is taken as given: a
/// stored checkpoint never rots, and a checkpoint costs only its
/// latency.
class CheckpointStore {
 public:
  /// `write_latency`: the modeled time to persist one checkpoint. The
  /// paper notes stable-storage access is "relatively expensive",
  /// motivating long checkpoint intervals versus short test intervals
  /// [14]; benches E12 sweep it.
  explicit CheckpointStore(double write_latency = 0.0)
      : write_latency_(write_latency) {}

  /// Persists a checkpoint in place of the previous one; returns the
  /// modeled write latency.
  double save(std::uint64_t round, const VersionState& state,
              vds::sim::SimTime now);

  /// The last checkpoint saved, if any. The caller accounts for the
  /// restoration cost in simulated time.
  [[nodiscard]] const std::optional<Checkpoint>& latest() const noexcept {
    return last_;
  }

 private:
  double write_latency_;
  std::optional<Checkpoint> last_;
};

}  // namespace vds::checkpoint
