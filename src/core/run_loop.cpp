#include "core/run_loop.hpp"

#include <algorithm>

namespace vds::core {

namespace metrics = vds::runtime::metrics;

bool RunLoop::finalize() noexcept {
  rep_.total_time = clock_;
  rep_.rounds_committed = std::min(base_ + i_, run_config_.job_rounds);
  rep_.completed = !rep_.failed_safe &&
                   rep_.rounds_committed >= run_config_.job_rounds;
  return rep_.completed;
}

// The engine's observable counterparts of the paper's equations. All
// protocol event counts are pure functions of (config, seed,
// timeline) — never of scheduling — so each one folds into a
// deterministic global counter once, when the run finishes.
void RunLoop::fold_into_metrics(const RunReport& rep) {
  using metrics::Determinism;
  struct EngineCounters {
    metrics::Counter& runs;
    metrics::Counter& completed;
    metrics::Counter& failed_safe;
    metrics::Counter& silent_corruptions;
    metrics::Counter& rounds_committed;
    metrics::Counter& comparisons;
    metrics::Counter& checkpoints;
    metrics::Counter& detections;
    metrics::Counter& rollbacks;
    metrics::Counter& recoveries_ok;
    metrics::Counter& roll_forwards_kept;
    metrics::Counter& roll_forwards_discarded;
    metrics::Counter& roll_forward_rounds_gained;
    metrics::Counter& faults_seen;
    metrics::Counter& predictions;
    metrics::Counter& prediction_hits;
  };
  auto& reg = metrics::registry();
  static EngineCounters c{
      reg.counter("engine.runs", Determinism::kDeterministic),
      reg.counter("engine.completed", Determinism::kDeterministic),
      reg.counter("engine.failed_safe", Determinism::kDeterministic),
      reg.counter("engine.silent_corruptions", Determinism::kDeterministic),
      reg.counter("engine.rounds_committed", Determinism::kDeterministic),
      reg.counter("engine.comparisons", Determinism::kDeterministic),
      reg.counter("engine.checkpoints", Determinism::kDeterministic),
      reg.counter("engine.detections", Determinism::kDeterministic),
      reg.counter("engine.rollbacks", Determinism::kDeterministic),
      reg.counter("engine.recoveries_ok", Determinism::kDeterministic),
      reg.counter("engine.roll_forwards_kept", Determinism::kDeterministic),
      reg.counter("engine.roll_forwards_discarded",
                  Determinism::kDeterministic),
      reg.counter("engine.roll_forward_rounds_gained",
                  Determinism::kDeterministic),
      reg.counter("engine.faults_seen", Determinism::kDeterministic),
      reg.counter("engine.predictions", Determinism::kDeterministic),
      reg.counter("engine.prediction_hits", Determinism::kDeterministic),
  };
  c.runs.add();
  c.completed.add(rep.completed ? 1 : 0);
  c.failed_safe.add(rep.failed_safe ? 1 : 0);
  c.silent_corruptions.add(rep.silent_corruption ? 1 : 0);
  c.rounds_committed.add(rep.rounds_committed);
  c.comparisons.add(rep.comparisons);
  c.checkpoints.add(rep.checkpoints);
  c.detections.add(rep.detections);
  c.rollbacks.add(rep.rollbacks);
  c.recoveries_ok.add(rep.recoveries_ok);
  c.roll_forwards_kept.add(rep.roll_forwards_kept);
  c.roll_forwards_discarded.add(rep.roll_forwards_discarded);
  c.roll_forward_rounds_gained.add(rep.roll_forward_rounds_gained);
  c.faults_seen.add(rep.faults_seen);
  c.predictions.add(rep.predictions);
  c.prediction_hits.add(rep.prediction_hits);
}

}  // namespace vds::core
