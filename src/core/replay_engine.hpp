#pragma once

#include "core/engine.hpp"
#include "core/options.hpp"
#include "core/report.hpp"
#include "fault/injector.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"

namespace vds::core {

/// Record/replay detection in the spirit of RepTFD (Li et al., 2012):
/// the primary thread context runs the job at near-full speed while
/// recording each round's inputs and non-deterministic events; the
/// otherwise-idle second SMT context replays completed rounds in
/// windows and compares outcome digests. Detection latency is the
/// replay lag (one recording window plus the compare), and coverage
/// follows from the compare granularity: a mismatch localizes the
/// fault to a window, never to a round.
///
/// Recovery is asymmetric: a mismatch or a single-context crash
/// restores from the replayer's *verified* state (only the unverified
/// replay-lag rounds are lost), while a processor crash loses both
/// contexts and falls back to the last stable-storage checkpoint.
/// Record and replay execute the same code on the same hardware, so a
/// permanent defect corrupts both executions identically and stays
/// silent — the diversity gap this engine trades for its low fault-free
/// overhead.
///
/// The checkpoint cadence counts verified rounds: `s` is reached only
/// at the end of a window that verified.
struct ReplayConfig : RunConfig {
  double alpha = 0.65;  ///< SMT slowdown with both contexts busy
  /// Fractional slowdown of the primary from writing the record log.
  double record_overhead = 0.05;
  /// Rounds per replay/compare batch; the compare granularity and the
  /// dominant term of the detection latency.
  int window = 4;
  double compare_time = 0.1;  ///< digest comparison at a window boundary
  /// Consecutive failed windows before fail-safe shutdown.
  int max_consecutive_failures = 8;

  void validate() const;
};

/// Replay-detection reference implementation against the common fault
/// timeline; reuses core::RunReport for comparable accounting.
class ReplayVds final : public Engine {
 public:
  ReplayVds(ReplayConfig config, vds::sim::Rng rng);

  [[nodiscard]] std::string_view kind() const noexcept override {
    return "replay";
  }

  /// `trace` is accepted for Engine uniformity and ignored (windows
  /// are compared below protocol-event granularity).
  RunReport run(vds::fault::FaultTimeline& timeline,
                vds::sim::Trace* trace = nullptr) override;

 private:
  ReplayConfig config_;
  vds::sim::Rng rng_;
};

}  // namespace vds::core
