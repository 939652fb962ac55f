#include "checkpoint/store.hpp"

namespace vds::checkpoint {

double CheckpointStore::save(std::uint64_t round, const VersionState& state,
                             vds::sim::SimTime now) {
  Checkpoint& checkpoint = last_ ? *last_ : last_.emplace();
  checkpoint.round = round;
  checkpoint.state = state;  // reuses the previous checkpoint's words
  checkpoint.saved_at = now;
  return write_latency_;
}

}  // namespace vds::checkpoint
