#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

#include "model/params.hpp"

namespace vds::core {

/// Recovery strategy executed when a state comparison mismatches
/// (paper §2.2 and §3.2/§4).
enum class RecoveryScheme : std::uint8_t {
  kRollback,           ///< both versions restart from the last checkpoint
  kStopAndRetry,       ///< v3 replays the interval, 2-of-3 vote (the
                       ///< conventional-processor scheme, eq (2))
  kRollForwardDet,     ///< SMT: deterministic roll-forward, i/4 from each
                       ///< candidate state (Figure 3)
  kRollForwardProb,    ///< SMT: probabilistic roll-forward, i/2 from one
                       ///< chosen state (Figure 2)
  kRollForwardPredict, ///< SMT §4: predicted fault-free version runs i
                       ///< rounds, no detection during roll-forward
};

/// Every scheme, for exhaustive iteration (tests, sweeps, CLI matrices).
inline constexpr std::array<RecoveryScheme, 5> kAllRecoverySchemes = {
    RecoveryScheme::kRollback,           RecoveryScheme::kStopAndRetry,
    RecoveryScheme::kRollForwardDet,     RecoveryScheme::kRollForwardProb,
    RecoveryScheme::kRollForwardPredict,
};

/// Canonical name ("rollback", "stop_and_retry", "roll_forward_det", ...).
[[nodiscard]] std::string_view to_string(RecoveryScheme scheme) noexcept;

/// Compact CLI-stable alias ("rollback", "retry", "det", "prob",
/// "predict") — the spelling used by every tool flag and JSON field.
[[nodiscard]] std::string_view short_name(RecoveryScheme scheme) noexcept;

/// Parses either the canonical `to_string` name or the `short_name`
/// alias; std::nullopt for anything else. Round-trips exhaustively:
/// `parse_recovery_scheme(to_string(s)) == s` for every scheme.
[[nodiscard]] std::optional<RecoveryScheme> parse_recovery_scheme(
    std::string_view name) noexcept;

/// The run fields every engine config shares. VdsOptions, SrtConfig,
/// DuplexConfig, ReplayConfig and DmeConfig derive from it; each
/// engine's own validate() calls RunConfig::validate() first.
struct RunConfig {
  double t = 1.0;  ///< compute time of one round of useful work
  int s = 20;      ///< checkpoint interval in committed rounds
  std::uint64_t job_rounds = 1000;        ///< useful rounds to complete
  double checkpoint_write_latency = 0.0;  ///< stable-storage write time
  double checkpoint_read_latency = 0.0;   ///< restore time
  /// Upper bound on simulated time (guards runaway fault storms).
  double max_time = 1e12;

  void validate() const;
};

/// Configuration of a VDS execution (either engine). The run fields
/// (t, s, job_rounds, checkpoint latencies, max_time) come from
/// RunConfig and play the same roles as in model::Params.
struct VdsOptions : RunConfig {
  // --- timing ---
  double c = 0.1;      ///< context-switch time (conventional processor)
  double t_cmp = 0.1;  ///< state-comparison time
  double alpha = 0.65; ///< SMT slowdown factor (SMT engine only)

  // --- job ---
  std::uint64_t job_seed = 1;       ///< seeds the initial version state
  std::size_t state_words = 16;     ///< size of a version's state

  // --- recovery ---
  RecoveryScheme scheme = RecoveryScheme::kStopAndRetry;
  /// Consecutive failed recoveries (no majority / repeated rollback)
  /// before the VDS gives up and shuts down fail-safe.
  int max_consecutive_failures = 8;

  // --- multithread extension (SMT engine, paper §5 outlook) ---
  /// 2 = the paper's main scheme. 3 enables the probabilistic variant
  /// with detection during roll-forward at full progress; 5 the
  /// deterministic variant at full progress.
  int hardware_threads = 2;
  /// Slowdown factor when k > 2 threads share the core (alpha_k);
  /// each k-thread round costs k * alpha_k * t.
  double alpha3 = 0.55;
  double alpha5 = 0.45;

  // --- adaptive scheme selection (SMT engine) ---
  /// Extension of the paper's §5 "more sophisticated algorithms"
  /// remark: when set, the engine chooses the roll-forward scheme per
  /// recovery from the predictor's measured accuracy -- probabilistic
  /// roll-forward (larger expected progress) once the predictor proves
  /// itself, deterministic roll-forward (guaranteed progress) otherwise.
  bool adaptive_scheme = false;
  /// Measured accuracy needed before the probabilistic scheme is used.
  double adaptive_p_threshold = 0.6;
  /// Detections observed before the accuracy estimate is trusted.
  int adaptive_warmup = 4;

  // --- permanent faults ---
  /// Probability that version diversity exposes a given permanent fault
  /// (i.e. the versions produce *different* wrong results, so the
  /// comparison fires). 1.0 = ideal systematic diversity.
  double permanent_detectable_prob = 1.0;
  /// Probability that a version *other than the victim* also exercises
  /// the broken unit. 0 = diversity perfectly separates hardware usage
  /// (permanent faults are always tolerable via the spare version);
  /// 1 = every version uses the unit (recovery impossible, fail-safe).
  double permanent_affects_others_prob = 0.5;

  void validate() const;

  /// The analytical-model view of these options (eq (14) closure not
  /// assumed: c and t_cmp are taken as configured).
  [[nodiscard]] model::Params to_model_params(double p = 0.5) const;
};

}  // namespace vds::core
