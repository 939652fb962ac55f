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

/// Latency model for stable storage. The paper notes stable-storage
/// access is "relatively expensive", motivating long checkpoint
/// intervals versus short test intervals [14]; benches E12 sweep these.
struct StoreLatency {
  double write = 0.0;  ///< time to persist one checkpoint
  double read = 0.0;   ///< time to restore one checkpoint
};

/// In-memory model of stable checkpoint storage. Recovery always
/// restarts from the last checkpoint, so that is the one it keeps. The
/// memory-protection assumption of paper §2.1 is taken as given: a
/// stored checkpoint never rots, and a checkpoint costs only its
/// latency.
class CheckpointStore {
 public:
  explicit CheckpointStore(StoreLatency latency = {}) : latency_(latency) {}

  /// Persists a checkpoint in place of the previous one; returns the
  /// modeled write latency.
  double save(std::uint64_t round, const VersionState& state,
              vds::sim::SimTime now);

  /// The last checkpoint saved, if any. Restoration cost is
  /// latency().read; the caller accounts for it in simulated time.
  [[nodiscard]] const std::optional<Checkpoint>& latest() const noexcept {
    return last_;
  }

  [[nodiscard]] const StoreLatency& latency() const noexcept {
    return latency_;
  }

 private:
  StoreLatency latency_;
  std::optional<Checkpoint> last_;
};

}  // namespace vds::checkpoint
