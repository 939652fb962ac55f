#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "checkpoint/store.hpp"
#include "core/options.hpp"
#include "core/report.hpp"
#include "core/run_loop.hpp"
#include "core/version_set.hpp"
#include "fault/injector.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"

namespace vds::runtime::metrics {
class Counter;
}  // namespace vds::runtime::metrics

namespace vds::core {

/// One duplex slot: the version currently occupying it, its state and
/// whether it crashed since the last comparison.
struct EngineSlot {
  vds::checkpoint::VersionState state;
  int version_id = 0;
  bool crashed = false;
};

class ProtocolCore;

/// The text of one trace record: who (actor) and free-form detail.
struct TraceText {
  std::string actor;
  std::string detail;
};

/// Strategy executed when a round comparison mismatches (paper §3/§4).
/// Concrete policies: RollbackPolicy (checkpoint restart, both
/// platforms), StopAndRetryPolicy (the conventional-processor serial
/// retry + 2-of-3 vote, eq (2)) and SmtRecoveryPolicy (parallel v3
/// retry + det/prob/predict roll-forward, Figures 2/3, optionally
/// driven by an adaptive scheme selector). See recovery_policy.hpp.
class RecoveryPolicy {
 public:
  virtual ~RecoveryPolicy() = default;

  /// Handles the mismatch detected at round `core.i_ + 1`. Must leave
  /// the core consistent: either rolled back, or recovered with `i_`
  /// advanced and a checkpoint considered.
  virtual void recover(ProtocolCore& core) = 0;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// The `engine.recoveries.<name>` counter, resolved once per policy
  /// class and registered on first use.
  [[nodiscard]] virtual vds::runtime::metrics::Counter& recoveries()
      const = 0;
};

/// Shared interpreter spine of the VDS protocol on the shared RunLoop:
/// state comparison, checkpointing, rollback and the fail-safe
/// counter, identical on both platforms. Platform adapters
/// (ConventionalCore, SmtCore in platform_cores.hpp) supply the round
/// step, its timing and the fault-application semantics; a
/// RecoveryPolicy supplies the mismatch handling. One ProtocolCore
/// interprets one run and is then discarded — engines construct a
/// fresh core (and policy) per `run()` call, so runs never share
/// protocol state.
///
/// The data members are deliberately open: ProtocolCore is the
/// internal coordination surface between platform adapters and
/// recovery policies, not a public API — external code drives engines
/// through core::Engine.
class ProtocolCore : public RunLoop {
 public:
  ProtocolCore(const VdsOptions& options, vds::sim::Rng& rng,
               vds::fault::FaultTimeline& timeline, vds::sim::Trace* trace,
               RecoveryPolicy& policy);
  virtual ~ProtocolCore() = default;

  ProtocolCore(const ProtocolCore&) = delete;
  ProtocolCore& operator=(const ProtocolCore&) = delete;

  /// Executes the job with the adapter's round `step`, then checks the
  /// committed states against the golden fault-free state.
  template <typename Step>
  RunReport run(Step&& step) {
    return RunLoop::run(step, [this] { check_committed_state(); });
  }

  // --- building blocks shared by platform adapters and policies ----

  /// Appends a trace record at the current clock. `text` returns the
  /// record's TraceText and is called only when an enabled trace is
  /// attached, so an untraced round builds no strings.
  template <typename Text>
  void record(vds::sim::TraceKind kind, Text&& text) {
    if (trace_ == nullptr || !trace_->enabled()) return;
    TraceText t = std::forward<Text>(text)();
    trace_->record(clock_, std::move(t.actor), kind, std::move(t.detail));
  }

  /// Drains the timeline over [from, to) and applies each fault with
  /// the platform's background-victim semantics.
  void drain_background(double from, double to);

  /// Notes the first undetected fault of the current interval (the
  /// detection-latency anchor).
  void note_pending(const vds::fault::Fault& fault, int slot_hit);
  void clear_pending();

  /// Applies a transient flip while enforcing the paper's fault-model
  /// assumption (§2.1) that no fault corrupts two versions in the same
  /// way: a recovery-window fault whose flip would coincide with the
  /// pending fault's flip (same state word and bit) is nudged to the
  /// neighbouring bit. Without this, coinciding flips make a corrupted
  /// retry state *equal* a corrupted version state and invert the vote.
  void flip_distinct(vds::checkpoint::VersionState& state,
                     std::uint32_t word, std::uint8_t bit) const;

  /// Commits the interval into a checkpoint once `s` compared rounds
  /// accumulated (or the job finished).
  void maybe_checkpoint();

  /// Restores both slots from the last checkpoint and advances the
  /// fail-safe counter.
  void rollback();

  /// Consumes a pending processor crash: rolls back and reports true.
  [[nodiscard]] bool handle_processor_crash();

  // --- shared protocol state ---------------------------------------
  const VdsOptions& opt_;
  vds::sim::Rng& rng_;
  vds::fault::FaultTimeline& timeline_;
  vds::sim::Trace* trace_;
  VersionSet vset_;
  vds::checkpoint::CheckpointStore store_;

  EngineSlot a_;
  EngineSlot b_;
  int spare_id_ = 3;
  bool processor_crash_ = false;

  double pending_since_ = -1.0;  ///< first undetected fault's time
  std::uint32_t pending_location_ = 0;
  int pending_slot_ = -1;
  bool pending_crash_ = false;
  std::uint32_t pending_word_ = 0;
  std::uint8_t pending_bit_ = 0;

 protected:
  /// Applies one fault drained while no single version exclusively
  /// occupies the compute resource (context switch, comparison,
  /// checkpoint I/O) — platform victim semantics.
  virtual void apply_background_fault(const vds::fault::Fault& fault) = 0;

  /// Shared tail of every round: comparison phase, mismatch check,
  /// and — on mismatch — detection accounting plus recovery-policy
  /// dispatch.
  void compare_and_dispatch(std::uint64_t round);

 private:
  /// Silent-corruption check and job-done trace of a completed run.
  void check_committed_state();

  RecoveryPolicy& policy_;
};

}  // namespace vds::core
