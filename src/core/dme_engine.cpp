#include "core/dme_engine.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/run_loop.hpp"
#include "runtime/metrics.hpp"

namespace vds::core {

namespace metrics = vds::runtime::metrics;

using vds::fault::Fault;
using vds::fault::FaultKind;

void DmeConfig::validate() const {
  RunConfig::validate();
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("DmeConfig: ") + what);
  };
  if (!(alpha >= 0.5) || alpha > 1.0) fail("alpha in [0.5, 1]");
  // The negated form rejects NaN along with out-of-range values.
  if (!(decorrelation >= 0.0 && decorrelation <= 1.0)) {
    fail("decorrelation in [0, 1]");
  }
  if (!(common_mode >= 0.0 && common_mode <= 1.0)) {
    fail("common_mode in [0, 1]");
  }
  if (!(alpha_penalty >= 0.0) || !std::isfinite(alpha_penalty)) {
    fail("alpha_penalty must be finite and >= 0");
  }
  if (!(t_cmp >= 0.0) || !std::isfinite(t_cmp)) {
    fail("t_cmp must be finite and >= 0");
  }
  if (max_consecutive_failures < 1) fail("max_consecutive_failures >= 1");
}

namespace {

/// One DME run on the shared loop: both versions compute a round, the
/// slower one decides when it ends, then the states are compared.
class DmeRun final : public RunLoop {
 public:
  DmeRun(const DmeConfig& config, vds::fault::FaultTimeline& timeline,
         vds::sim::Rng& rng)
      : RunLoop(config), config_(config), timeline_(timeline), rng_(rng),
        round_time_(2.0 * config.t *
                        std::max(config.alpha1(), config.alpha2()) +
                    config.t_cmp),
        p_common_((1.0 - config.decorrelation) * config.common_mode) {}

  void step();

  /// Folds the DME-only counts; the shared ones fold in RunLoop.
  void fold_metrics() const;

 private:
  const DmeConfig& config_;
  vds::fault::FaultTimeline& timeline_;
  vds::sim::Rng& rng_;
  const double round_time_;
  const double p_common_;
  bool permanent_divergent_ = false;
  std::uint64_t common_mode_faults_ = 0;
  std::uint64_t divergent_permanents_ = 0;
};

void DmeRun::step() {
  const auto faults = timeline_.drain_window(clock_, clock_ + round_time_);
  clock_ += round_time_;
  bool detected = false;
  for (const Fault& fault : faults) {
    ++rep_.faults_seen;
    bool fault_detected = false;
    switch (fault.kind) {
      case FaultKind::kTransient:
        ++rep_.transient_faults;
        // A transient landing in state the versions share corrupts
        // both identically and the compare passes — common mode.
        if (rng_.uniform() < p_common_) {
          ++common_mode_faults_;
          rep_.silent_corruption = true;
        } else {
          fault_detected = true;
        }
        break;
      case FaultKind::kCrash:
        ++rep_.crash_faults;
        fault_detected = true;
        break;
      case FaultKind::kPermanent:
        ++rep_.permanent_faults;
        // Structurally different code exercises a broken unit
        // differently with probability d: the versions then diverge
        // at every compare from here on. Otherwise the defect hits
        // both identically — silent.
        if (rng_.uniform() < config_.decorrelation) {
          ++divergent_permanents_;
          permanent_divergent_ = true;
        } else {
          rep_.silent_corruption = true;
        }
        break;
      case FaultKind::kProcessorCrash:
        ++rep_.processor_crashes;
        fault_detected = true;
        break;
    }
    if (fault_detected) {
      detected = true;
      rep_.detection_latency.add(clock_ - fault.when);
    }
  }
  ++rep_.comparisons;
  // A divergent permanent defect manifests in every compare.
  if (permanent_divergent_) detected = true;

  if (detected) {
    ++rep_.detections;
    const double recovery_start = clock_;
    // Two versions, no majority: rollback is the only recovery.
    roll_back();
    rep_.recovery_time.add(clock_ - recovery_start);
    count_failure(config_.max_consecutive_failures);
    return;
  }
  // Unlike duplex and VDS, DME clears the fail-safe count on every
  // clean round, not only at a checkpoint.
  consecutive_failures_ = 0;
  ++i_;
  if (checkpoint_due()) commit_checkpoint();
}

// Pure functions of (config, timeline, engine seed), never of
// scheduling, so they fold into deterministic global counters.
void DmeRun::fold_metrics() const {
  using metrics::Determinism;
  auto& reg = metrics::registry();
  static auto& common =
      reg.counter("dme.common_mode_faults", Determinism::kDeterministic);
  static auto& divergent =
      reg.counter("dme.divergent_permanents", Determinism::kDeterministic);
  common.add(common_mode_faults_);
  divergent.add(divergent_permanents_);
}

}  // namespace

DmeEngine::DmeEngine(DmeConfig config, vds::sim::Rng rng)
    : config_(config), rng_(rng) {
  config_.validate();
}

RunReport DmeEngine::run(vds::fault::FaultTimeline& timeline,
                         vds::sim::Trace* /*trace*/) {
  DmeRun dme(config_, timeline, rng_);
  const RunReport rep = dme.run([&dme] { dme.step(); }, [] {});
  dme.fold_metrics();
  return rep;
}

}  // namespace vds::core
