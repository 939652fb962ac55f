#pragma once

#include <cstdint>

#include "core/options.hpp"
#include "core/report.hpp"
#include "runtime/metrics.hpp"

namespace vds::core {

/// The run skeleton shared by all six engines: the run state, the loop
/// condition, the checkpoint cadence, rollback accounting, report
/// finalization and the one fold into the `engine.*` counters. An
/// engine supplies its round step and its detection and recovery
/// semantics; the step is a template argument, so no round pays a
/// virtual call.
///
/// The state members are deliberately open, like ProtocolCore's: a
/// step reads and advances them directly.
class RunLoop {
 public:
  explicit RunLoop(const RunConfig& config) noexcept : run_config_(config) {}

  /// Calls `step` until `job_rounds` are committed, the clock passes
  /// `max_time` or the run failed safe, then finalizes the report.
  /// `on_completed` runs only when the whole job was committed, before
  /// the report is folded into the metrics.
  template <typename Step, typename Done>
  RunReport run(Step&& step, Done&& on_completed) {
    const vds::runtime::metrics::Span run_span("engine.run", "engine");
    while (base_ + i_ < run_config_.job_rounds &&
           clock_ <= run_config_.max_time && !rep_.failed_safe) {
      step();
    }
    if (finalize()) on_completed();
    fold_into_metrics(rep_);
    return rep_;
  }

  /// True once `s` rounds accumulated since the checkpoint, or the job
  /// is done.
  [[nodiscard]] bool checkpoint_due() const noexcept {
    return i_ >= static_cast<std::uint64_t>(run_config_.s) ||
           base_ + i_ >= run_config_.job_rounds;
  }

  /// Pays the write latency, commits the interval into `base_` and
  /// clears the fail-safe count.
  void commit_checkpoint() noexcept {
    clock_ += run_config_.checkpoint_write_latency;
    ++rep_.checkpoints;
    base_ += i_;
    i_ = 0;
    consecutive_failures_ = 0;
  }

  /// Pays the read latency and drops every round since the checkpoint.
  void roll_back() noexcept {
    clock_ += run_config_.checkpoint_read_latency;
    i_ = 0;
    ++rep_.rollbacks;
  }

  /// Counts one failed recovery; true (and failed safe) once
  /// `max_failures` happened in a row.
  bool count_failure(int max_failures) noexcept {
    if (++consecutive_failures_ < max_failures) return false;
    rep_.failed_safe = true;
    return true;
  }

  RunReport rep_;
  double clock_ = 0.0;
  std::uint64_t base_ = 0;  ///< rounds committed at the last checkpoint
  std::uint64_t i_ = 0;     ///< rounds since the checkpoint
  int consecutive_failures_ = 0;

 private:
  /// Sets total time, committed rounds and completion; returns the
  /// latter.
  bool finalize() noexcept;

  /// Folds one finished run into the deterministic `engine.*` counters.
  static void fold_into_metrics(const RunReport& rep);

  const RunConfig& run_config_;
};

}  // namespace vds::core
