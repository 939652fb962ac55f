#include "fault/detector.hpp"

namespace vds::fault {

CompareOutcome compare_states(const vds::checkpoint::VersionState& a,
                              const vds::checkpoint::VersionState& b) noexcept {
  return states_match(a, b) ? CompareOutcome::kMatch
                            : CompareOutcome::kMismatch;
}

}  // namespace vds::fault
