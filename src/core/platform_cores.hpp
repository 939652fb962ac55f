#pragma once

#include "core/protocol_core.hpp"
#include "fault/predictor.hpp"

namespace vds::core {

/// Conventional (single-context) processor adapter, paper §3.1 /
/// Figure 1(a): versions alternate in rounds separated by context
/// switches. Simulated time advances phase by phase; each phase drains
/// the fault timeline over its window and applies the faults to
/// whatever occupies the processor during that window.
class ConventionalCore final : public ProtocolCore {
 public:
  ConventionalCore(const VdsOptions& options, vds::sim::Rng& rng,
                   vds::fault::FaultTimeline& timeline,
                   vds::sim::Trace* trace, RecoveryPolicy& policy)
      : ProtocolCore(options, rng, timeline, trace, policy) {}

  /// Applies one fault. `occupant` is the slot computing during the
  /// fault window (nullptr when the processor is switching/comparing,
  /// in which case a memory-resident victim is picked at random);
  /// `retry_state` points at the retry state when version 3 occupies
  /// the CPU.
  void apply_fault(const vds::fault::Fault& fault, EngineSlot* occupant,
                   vds::checkpoint::VersionState* retry_state,
                   bool* retry_crashed);

  void drain(double from, double to, EngineSlot* occupant,
             vds::checkpoint::VersionState* retry_state = nullptr,
             bool* retry_crashed = nullptr);

  /// One round: both versions in turn with context switches, then the
  /// shared compare.
  void step_round();

 protected:
  void apply_background_fault(const vds::fault::Fault& fault) override {
    apply_fault(fault, nullptr, nullptr, nullptr);
  }
};

/// SMT processor adapter, paper §3.2 / Figure 1(b): both versions run
/// in parallel hardware threads (a round pair costs 2*alpha*t, no
/// context switches); the fault's victim attribute decides which
/// hardware thread it strikes.
class SmtCore final : public ProtocolCore {
 public:
  SmtCore(const VdsOptions& options, vds::sim::Rng& rng,
          vds::fault::Predictor& predictor,
          vds::fault::FaultTimeline& timeline, vds::sim::Trace* trace,
          RecoveryPolicy& policy)
      : ProtocolCore(options, rng, timeline, trace, policy),
        predictor_(predictor) {}

  /// Applies a fault drained over a *normal round* window, where both
  /// duplex versions occupy the processor simultaneously.
  void apply_normal(const vds::fault::Fault& fault);

  /// Activates a permanent hardware fault against `victim_version`.
  void activate_permanent(const vds::fault::Fault& fault,
                          int victim_version);

  [[nodiscard]] vds::fault::Predictor& predictor() noexcept {
    return predictor_;
  }

  /// One round: both versions in parallel threads, then the shared
  /// compare.
  void step_round();

 protected:
  void apply_background_fault(const vds::fault::Fault& fault) override {
    apply_normal(fault);
  }

 private:
  EngineSlot& resolve_victim(const vds::fault::Fault& fault);

  vds::fault::Predictor& predictor_;
};

}  // namespace vds::core
