#pragma once

#include "core/engine.hpp"
#include "core/options.hpp"
#include "core/report.hpp"
#include "fault/injector.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"

namespace vds::baseline {

/// Reinhardt/Mukherjee-style simultaneous redundant threading (paper
/// §2.2, [9]): two *identical* copies run cycle-by-cycle lockstep on the
/// SMT processor and results are compared continuously in hardware.
///
/// Detection latency shrinks to (a fraction of) a round, but the scheme
/// pays a continuous comparison overhead, provides no design diversity
/// (permanent faults corrupting both copies identically stay invisible)
/// and, having no third version, recovers only by rollback.
///
/// SRT never fails safe: every detection rolls back, however often, so
/// it has no consecutive-failure limit.
struct SrtConfig : vds::core::RunConfig {
  double alpha = 0.65;  ///< SMT slowdown running the two copies
  /// Fractional slowdown from the per-cycle comparison/buffering
  /// hardware being on the critical path.
  double compare_overhead = 0.10;
  /// Comparison granularity: chunks per round; detection happens at the
  /// end of the chunk the fault falls in.
  int chunks_per_round = 100;

  void validate() const;
};

/// Lockstep SRT reference implementation against the common fault
/// timeline. Reuses core::RunReport for comparable accounting: every
/// detection is followed by a rollback (no vote, no roll-forward).
class LockstepSrt final : public vds::core::Engine {
 public:
  LockstepSrt(SrtConfig config, vds::sim::Rng rng);

  [[nodiscard]] std::string_view kind() const noexcept override {
    return "srt";
  }

  /// `trace` is accepted for Engine uniformity and ignored: lockstep
  /// comparison happens per chunk in hardware, below protocol events.
  vds::core::RunReport run(vds::fault::FaultTimeline& timeline,
                           vds::sim::Trace* trace = nullptr) override;

 private:
  SrtConfig config_;
  vds::sim::Rng rng_;
};

}  // namespace vds::baseline
