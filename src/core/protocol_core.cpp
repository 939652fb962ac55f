#include "core/protocol_core.hpp"

#include <algorithm>
#include <utility>

#include "fault/detector.hpp"
#include "runtime/metrics.hpp"

namespace vds::core {

namespace {

namespace metrics = vds::runtime::metrics;

// The engine's observable counterparts of the paper's equations. All
// protocol event counts are pure functions of (options, seed,
// timeline) — never of scheduling — so each one folds into a
// deterministic global counter once, when the run finishes.
void fold_into_metrics(const RunReport& rep) {
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

}  // namespace

using vds::checkpoint::VersionState;
using vds::fault::Fault;
using vds::sim::TraceKind;

ProtocolCore::ProtocolCore(const VdsOptions& options, vds::sim::Rng& rng,
                           vds::fault::FaultTimeline& timeline,
                           vds::sim::Trace* trace, RecoveryPolicy& policy)
    : opt_(options), rng_(rng), timeline_(timeline), trace_(trace),
      vset_(options),
      store_({options.checkpoint_write_latency,
              options.checkpoint_read_latency},
             /*keep_last=*/2),
      policy_(policy) {
  a_.state = vset_.initial_state();
  b_.state = a_.state;
  a_.version_id = 1;
  b_.version_id = 2;
  store_.save(0, a_.state, 0.0);  // initial checkpoint (setup, free)
}

RunReport ProtocolCore::run() {
  const metrics::Span run_span("engine.run", "engine");
  bool aborted = false;
  while (base_ + i_ < opt_.job_rounds) {
    if (clock_ > opt_.max_time || rep_.failed_safe) {
      aborted = true;
      break;
    }
    step_round();
  }
  rep_.total_time = clock_;
  rep_.rounds_committed = std::min(base_ + i_, opt_.job_rounds);
  rep_.completed = !aborted && !rep_.failed_safe &&
                   rep_.rounds_committed >= opt_.job_rounds;
  if (rep_.completed) {
    const auto& golden = vset_.golden_at(rep_.rounds_committed);
    rep_.silent_corruption = !vds::fault::states_match(a_.state, golden) ||
                             !vds::fault::states_match(b_.state, golden);
    record(TraceKind::kJobDone, [] { return TraceText{"VDS", ""}; });
  }
  fold_into_metrics(rep_);
  return rep_;
}

void ProtocolCore::drain_background(double from, double to) {
  for (const Fault& fault : timeline_.drain_window(from, to)) {
    apply_background_fault(fault);
  }
}

void ProtocolCore::note_pending(const Fault& fault, int slot_hit) {
  if (pending_since_ < 0.0) {
    pending_since_ = fault.when;
    pending_location_ = fault.location;
    pending_slot_ = slot_hit;
    pending_crash_ = fault.kind == vds::fault::FaultKind::kCrash;
    pending_word_ = fault.word;
    pending_bit_ = fault.bit;
  }
}

void ProtocolCore::clear_pending() {
  pending_since_ = -1.0;
  pending_slot_ = -1;
  pending_crash_ = false;
}

void ProtocolCore::flip_distinct(VersionState& state, std::uint32_t word,
                                 std::uint8_t bit) const {
  const std::size_t words = opt_.state_words;
  if (pending_since_ >= 0.0 && word % words == pending_word_ % words &&
      bit % 64 == pending_bit_ % 64) {
    bit = static_cast<std::uint8_t>((bit + 1) % 64);
  }
  state.flip_bit(word, bit);
}

void ProtocolCore::maybe_checkpoint() {
  if (i_ < static_cast<std::uint64_t>(opt_.s) &&
      base_ + i_ < opt_.job_rounds) {
    return;
  }
  drain_background(clock_, clock_ + opt_.checkpoint_write_latency);
  clock_ += store_.save(base_ + i_, a_.state, clock_);
  ++rep_.checkpoints;
  record(TraceKind::kCheckpoint, [&] {
    return TraceText{"VDS", "round " + std::to_string(base_ + i_)};
  });
  base_ += i_;
  i_ = 0;
  consecutive_failures_ = 0;
}

void ProtocolCore::rollback() {
  drain_background(clock_, clock_ + opt_.checkpoint_read_latency);
  clock_ += opt_.checkpoint_read_latency;
  const auto checkpoint = store_.latest();
  a_.state = checkpoint->state;
  b_.state = checkpoint->state;
  a_.crashed = b_.crashed = false;
  i_ = 0;
  ++rep_.rollbacks;
  ++consecutive_failures_;
  clear_pending();
  record(TraceKind::kRollback, [&] {
    return TraceText{"VDS", "to round " + std::to_string(base_)};
  });
  if (consecutive_failures_ >= opt_.max_consecutive_failures) {
    rep_.failed_safe = true;
    record(TraceKind::kFailSafeShutdown, [&] {
      return TraceText{"VDS", "after " +
                                  std::to_string(consecutive_failures_) +
                                  " consecutive failures"};
    });
  }
}

bool ProtocolCore::handle_processor_crash() {
  if (!processor_crash_) return false;
  processor_crash_ = false;
  record(TraceKind::kInfo,
         [] { return TraceText{"VDS", "processor crash: rollback"}; });
  rollback();
  return true;
}

void ProtocolCore::compare_and_dispatch(std::uint64_t round) {
  drain_background(clock_, clock_ + opt_.t_cmp);
  clock_ += opt_.t_cmp;
  ++rep_.comparisons;
  if (handle_processor_crash()) return;

  const bool mismatch =
      a_.crashed || b_.crashed ||
      vds::fault::compare_states(a_.state, b_.state) ==
          vds::fault::CompareOutcome::kMismatch;
  record(mismatch ? TraceKind::kCompareMismatch : TraceKind::kCompare,
         [&] { return TraceText{"VDS", "round " + std::to_string(round)}; });

  if (!mismatch) {
    ++i_;
    clear_pending();
    maybe_checkpoint();
    return;
  }

  ++rep_.detections;
  record(TraceKind::kFaultDetected, [&] {
    return TraceText{"VDS", "at round " + std::to_string(i_ + 1)};
  });
  if (pending_since_ >= 0.0) {
    rep_.detection_latency.add(clock_ - pending_since_);
  }
  policy_.recoveries().add();
  const double recovery_start = clock_;
  policy_.recover(*this);
  rep_.recovery_time.add(clock_ - recovery_start);
}

}  // namespace vds::core
