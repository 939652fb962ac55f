#include "fault/detector.hpp"

namespace vds::fault {

CompareOutcome compare_states(const vds::checkpoint::VersionState& a,
                              const vds::checkpoint::VersionState& b) noexcept {
  return states_match(a, b) ? CompareOutcome::kMatch
                            : CompareOutcome::kMismatch;
}

VoteOutcome majority_vote(const vds::checkpoint::VersionState& p,
                          const vds::checkpoint::VersionState& q,
                          const vds::checkpoint::VersionState& s) noexcept {
  const bool pq = states_match(p, q);
  const bool ps = states_match(p, s);
  const bool qs = states_match(q, s);
  if (pq && ps) return VoteOutcome::kAllAgree;
  if (qs && !ps) return VoteOutcome::kVersion1Faulty;
  if (ps && !qs) return VoteOutcome::kVersion2Faulty;
  // All three differ, or P == Q but the retry itself was hit.
  return VoteOutcome::kNoMajority;
}

}  // namespace vds::fault
