#pragma once

#include "core/engine.hpp"
#include "core/options.hpp"
#include "core/report.hpp"
#include "fault/injector.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"

namespace vds::baseline {

/// True (physical) duplex system: two separate processors each run one
/// diverse version at full speed; states are exchanged and compared
/// after every round. This is the system a VDS approximates with half
/// the hardware (paper §1: VDS provides "a cost advantage over duplex
/// systems because of reduced hardware requirements"). Each processor
/// runs its round in `t`, at full speed (no alpha).
struct DuplexConfig : vds::core::RunConfig {
  double t_cmp = 0.1;   ///< cross-processor state exchange + compare
  /// Consecutive failed recoveries before fail-safe shutdown.
  int max_consecutive_failures = 8;
  int processors = 2;  ///< hardware cost metric

  void validate() const;
};

/// Physical-duplex reference implementation. Stop-and-retry recovery:
/// on mismatch at round i, one processor replays version 3 for i rounds
/// (i * t) while the other idles, then a 2-out-of-3 vote.
class PhysicalDuplex final : public vds::core::Engine {
 public:
  PhysicalDuplex(DuplexConfig config, vds::sim::Rng rng);

  [[nodiscard]] std::string_view kind() const noexcept override {
    return "duplex";
  }

  /// `trace` is accepted for Engine uniformity and ignored (round
  /// accounting is aggregate; there are no per-version slot events).
  vds::core::RunReport run(vds::fault::FaultTimeline& timeline,
                           vds::sim::Trace* trace = nullptr) override;

  [[nodiscard]] const DuplexConfig& config() const noexcept {
    return config_;
  }

 private:
  DuplexConfig config_;
  vds::sim::Rng rng_;
};

}  // namespace vds::baseline
