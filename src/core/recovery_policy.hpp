#pragma once

#include <memory>

#include "core/protocol_core.hpp"
#include "fault/predictor.hpp"

namespace vds::core {

/// The platform a recovery policy will run on. Recovery is where the
/// platforms differ most (paper §3.1 vs §3.2): the conventional
/// processor can only stop and serially retry, the SMT processor
/// retries and rolls forward in parallel hardware threads.
enum class Platform {
  kConventional,
  kSmt,
};

/// kRollback on either platform: no retry at all — both versions
/// restart from the last checkpoint.
class RollbackPolicy final : public RecoveryPolicy {
 public:
  void recover(ProtocolCore& core) override { core.rollback(); }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "rollback";
  }
  [[nodiscard]] vds::runtime::metrics::Counter& recoveries()
      const override;
};

/// Conventional-processor stop-and-retry with 2-out-of-3 vote (paper
/// eq (2) timing): version 3 serially replays the interval from the
/// checkpoint, itself exposed to new faults while it runs.
/// Requires a ConventionalCore.
class StopAndRetryPolicy final : public RecoveryPolicy {
 public:
  void recover(ProtocolCore& core) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "stop_and_retry";
  }
  [[nodiscard]] vds::runtime::metrics::Counter& recoveries()
      const override;
};

/// Chooses the roll-forward scheme for each SMT recovery. The fixed
/// selector returns the configured scheme; the adaptive selector
/// implements the paper's §5 outlook — switching between guaranteed
/// (deterministic) and larger-expected (probabilistic) roll-forward
/// based on the predictor's measured accuracy.
class SchemeSelector {
 public:
  virtual ~SchemeSelector() = default;

  /// Picks the scheme for the recovery about to run (and does any
  /// selection bookkeeping on core.rep_).
  [[nodiscard]] virtual RecoveryScheme choose(ProtocolCore& core) = 0;

  /// Whether the predictor must be consulted (and fed back) even when
  /// the chosen scheme would not need it, so its accuracy estimate
  /// keeps learning.
  [[nodiscard]] virtual bool consults_predictor() const noexcept = 0;
};

class FixedSchemeSelector final : public SchemeSelector {
 public:
  explicit FixedSchemeSelector(RecoveryScheme scheme) noexcept
      : scheme_(scheme) {}
  [[nodiscard]] RecoveryScheme choose(ProtocolCore&) override {
    return scheme_;
  }
  [[nodiscard]] bool consults_predictor() const noexcept override {
    return false;
  }

 private:
  RecoveryScheme scheme_;
};

class AdaptiveSchemeSelector final : public SchemeSelector {
 public:
  [[nodiscard]] RecoveryScheme choose(ProtocolCore& core) override;
  [[nodiscard]] bool consults_predictor() const noexcept override {
    return true;
  }

 private:
  RecoveryScheme last_choice_ = RecoveryScheme::kRollForwardDet;
};

/// Unified SMT recovery (Figures 2 and 3): v3 retry in hardware
/// thread 1 + scheme-dependent roll-forward in thread 2, ending in a
/// 2-out-of-3 majority vote. Requires an SmtCore.
class SmtRecoveryPolicy final : public RecoveryPolicy {
 public:
  explicit SmtRecoveryPolicy(std::unique_ptr<SchemeSelector> selector)
      : selector_(std::move(selector)) {}

  void recover(ProtocolCore& core) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "smt_roll_forward";
  }
  [[nodiscard]] vds::runtime::metrics::Counter& recoveries()
      const override;

 private:
  [[nodiscard]] std::uint64_t intended_roll_forward(
      const VdsOptions& opt, RecoveryScheme scheme,
      std::uint64_t ic) const noexcept;
  [[nodiscard]] double recovery_window(const VdsOptions& opt,
                                       RecoveryScheme scheme,
                                       std::uint64_t ic) const noexcept;

  std::unique_ptr<SchemeSelector> selector_;
};

/// Builds the recovery policy `options` asks for on `platform`:
/// kRollback maps to RollbackPolicy everywhere; any retrying scheme
/// maps to StopAndRetryPolicy on the conventional processor and to
/// SmtRecoveryPolicy (with a fixed or adaptive scheme selector) on the
/// SMT processor. One policy instance serves one engine run.
[[nodiscard]] std::unique_ptr<RecoveryPolicy> make_recovery_policy(
    const VdsOptions& options, Platform platform);

}  // namespace vds::core
