#pragma once

#include <memory>

#include "core/engine.hpp"
#include "core/options.hpp"
#include "core/report.hpp"
#include "core/version_set.hpp"
#include "fault/injector.hpp"
#include "fault/predictor.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"

namespace vds::core {

/// VDS on a simultaneous multithreaded processor, paper §3.2 / Figure
/// 1(b): both versions run in parallel hardware threads (a round pair
/// costs 2*alpha*t, no context switches). On a mismatch at round i,
/// thread 1 replays version 3 from the checkpoint while thread 2 rolls
/// forward according to the configured scheme:
///
///  * kRollForwardDet    -- Figure 3: i/4 rounds of both versions from
///                          both candidate states (guaranteed progress)
///  * kRollForwardProb   -- Figure 2: i/2 rounds of both versions from
///                          one chosen candidate state
///  * kRollForwardPredict-- §4: i rounds of the predicted fault-free
///                          version, no detection during roll-forward
///  * kStopAndRetry      -- no roll-forward (thread 2 idles)
///  * kRollback          -- no retry at all
///
/// With options.hardware_threads == 3 (probabilistic) or 5
/// (deterministic), the §5 outlook variants run: full min(i, s-i)
/// progress while keeping detection during roll-forward.
class SmtVds final : public Engine {
 public:
  SmtVds(VdsOptions options, vds::sim::Rng rng);

  /// Installs the faulty-version predictor used by the probabilistic
  /// and prediction schemes. Defaults to RandomPredictor (p = 0.5).
  void set_predictor(std::unique_ptr<vds::fault::Predictor> predictor);

  [[nodiscard]] std::string_view kind() const noexcept override {
    return "smt";
  }

  /// Executes the job against a fault timeline. `trace` may be null.
  RunReport run(vds::fault::FaultTimeline& timeline,
                vds::sim::Trace* trace = nullptr) override;

 private:
  VdsOptions options_;
  vds::sim::Rng rng_;
  std::unique_ptr<vds::fault::Predictor> predictor_;
};

}  // namespace vds::core
