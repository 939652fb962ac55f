#pragma once

#include <algorithm>

#include "core/engine.hpp"
#include "core/options.hpp"
#include "core/report.hpp"
#include "fault/injector.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"

namespace vds::core {

/// Divergent multi-version execution (DME): two *structurally
/// decorrelated* versions run concurrently on the SMT contexts and
/// compare states after every round. Unlike the VDS versions (diverse
/// encodings of one algorithm with identical resource usage) the DME
/// versions use different algorithms/data structures, controlled by a
/// single decorrelation parameter d in [0, 1]:
///
///  * effective alphas diverge — version 2's structurally different
///    code is slower by up to `alpha_penalty` at d = 1, and the round
///    completes only when the slower version finishes;
///  * per-version fault-activation probabilities diverge — a permanent
///    defect activates *differently* in the two versions (and is thus
///    detected) with probability d, and a transient hitting shared
///    state corrupts both versions identically (common mode, silent)
///    with probability (1 - d) * common_mode.
///
/// d = 0 degenerates to lockstep-like identical copies (permanent
/// faults silent, common-mode transients silent); d = 1 is full
/// structural diversity (every permanent activates divergently, no
/// common mode). This replaces the fixed common-mode/coverage
/// assumptions of the VDS diversity substrate (E14) with a tunable
/// axis. With only two versions there is no 2-of-3 vote: recovery is
/// rollback, and a persistent divergent defect ends in fail-safe
/// shutdown after repeated failures rather than silent corruption.
struct DmeConfig : RunConfig {
  double alpha = 0.65;  ///< SMT slowdown of version 1 (the baseline)
  /// Structural-decorrelation parameter d in [0, 1].
  double decorrelation = 0.5;
  /// Fraction of transient faults that are common mode at d = 0.
  double common_mode = 0.3;
  /// Version 2's slowdown grows linearly to alpha * (1 + alpha_penalty)
  /// (capped at 1) at full decorrelation.
  double alpha_penalty = 0.25;
  double t_cmp = 0.1;  ///< state-comparison time per round
  /// Consecutive failed recoveries before fail-safe shutdown.
  int max_consecutive_failures = 8;

  void validate() const;

  [[nodiscard]] double alpha1() const noexcept { return alpha; }
  [[nodiscard]] double alpha2() const noexcept {
    return std::min(1.0, alpha * (1.0 + alpha_penalty * decorrelation));
  }
};

/// DME reference implementation against the common fault timeline;
/// reuses core::RunReport for comparable accounting.
class DmeEngine final : public Engine {
 public:
  DmeEngine(DmeConfig config, vds::sim::Rng rng);

  [[nodiscard]] std::string_view kind() const noexcept override {
    return "dme";
  }

  /// `trace` is accepted for Engine uniformity and ignored.
  RunReport run(vds::fault::FaultTimeline& timeline,
                vds::sim::Trace* trace = nullptr) override;

 private:
  DmeConfig config_;
  vds::sim::Rng rng_;
};

}  // namespace vds::core
