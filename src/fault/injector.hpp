#pragma once

#include <vector>

#include "fault/fault_model.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace vds::fault {

/// A pre-generated, time-sorted sequence of faults. The VDS engines
/// consume faults from the timeline as simulated time advances; this
/// keeps fault generation independent of protocol control flow, so a
/// conventional and an SMT run can be driven by the *same* fault
/// history for a paired comparison.
class FaultTimeline {
 public:
  FaultTimeline() = default;
  explicit FaultTimeline(std::vector<Fault> faults);

  /// All faults with `when` in [from, to). Advances the internal cursor;
  /// calls must be made with non-decreasing windows. Almost every window
  /// ends at or before the next pending fault (`next_time() >= to`): it
  /// is empty, leaves the cursor as it is, and costs one inline compare.
  [[nodiscard]] std::vector<Fault> drain_window(vds::sim::SimTime from,
                                                vds::sim::SimTime to) {
    if (next_time() >= to) return {};
    return drain_pending(from, to);
  }

  /// Next pending fault time, or infinity if exhausted.
  [[nodiscard]] vds::sim::SimTime next_time() const noexcept {
    return cursor_ < faults_.size() ? faults_[cursor_].when
                                    : vds::sim::kTimeInfinity;
  }

  [[nodiscard]] std::size_t size() const noexcept { return faults_.size(); }

 private:
  [[nodiscard]] std::vector<Fault> drain_pending(vds::sim::SimTime from,
                                                 vds::sim::SimTime to);

  std::vector<Fault> faults_;
  std::size_t cursor_ = 0;
};

/// Samples a fault's non-temporal attributes (kind, victim, location,
/// word/bit) from the configured distributions.
[[nodiscard]] Fault sample_fault_body(const FaultConfig& config,
                                      vds::sim::Rng& rng);

/// Generates a Poisson fault process over [0, horizon).
[[nodiscard]] FaultTimeline generate_timeline(const FaultConfig& config,
                                              vds::sim::Rng& rng,
                                              vds::sim::SimTime horizon);

}  // namespace vds::fault
