#include "core/options.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace vds::core {

std::string_view to_string(RecoveryScheme scheme) noexcept {
  switch (scheme) {
    case RecoveryScheme::kRollback: return "rollback";
    case RecoveryScheme::kStopAndRetry: return "stop_and_retry";
    case RecoveryScheme::kRollForwardDet: return "roll_forward_det";
    case RecoveryScheme::kRollForwardProb: return "roll_forward_prob";
    case RecoveryScheme::kRollForwardPredict: return "roll_forward_predict";
  }
  return "unknown";
}

std::string_view short_name(RecoveryScheme scheme) noexcept {
  switch (scheme) {
    case RecoveryScheme::kRollback: return "rollback";
    case RecoveryScheme::kStopAndRetry: return "retry";
    case RecoveryScheme::kRollForwardDet: return "det";
    case RecoveryScheme::kRollForwardProb: return "prob";
    case RecoveryScheme::kRollForwardPredict: return "predict";
  }
  return "unknown";
}

std::optional<RecoveryScheme> parse_recovery_scheme(
    std::string_view name) noexcept {
  for (const RecoveryScheme scheme : kAllRecoverySchemes) {
    if (name == to_string(scheme) || name == short_name(scheme)) {
      return scheme;
    }
  }
  return std::nullopt;
}

void RunConfig::validate() const {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("RunConfig: ") + what);
  };
  if (!(t > 0.0) || !std::isfinite(t)) fail("t must be finite and > 0");
  if (s < 1) fail("s must be >= 1");
  if (job_rounds == 0) fail("job_rounds must be >= 1");
  if (!(checkpoint_write_latency >= 0.0) ||
      !std::isfinite(checkpoint_write_latency) ||
      !(checkpoint_read_latency >= 0.0) ||
      !std::isfinite(checkpoint_read_latency)) {
    fail("checkpoint latencies must be finite and >= 0");
  }
  if (!(max_time > 0.0) || !std::isfinite(max_time)) {
    fail("max_time must be finite and > 0");
  }
}

void VdsOptions::validate() const {
  RunConfig::validate();
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("VdsOptions: " + what);
  };
  if (!(c >= 0.0) || !std::isfinite(c) || !(t_cmp >= 0.0) ||
      !std::isfinite(t_cmp)) {
    fail("c and t_cmp must be finite and >= 0");
  }
  if (!(alpha >= 0.5) || alpha > 1.0) fail("alpha must be in [0.5, 1]");
  if (state_words == 0) fail("state_words must be >= 1");
  if (max_consecutive_failures < 1) {
    fail("max_consecutive_failures must be >= 1");
  }
  if (hardware_threads != 2 && hardware_threads != 3 &&
      hardware_threads != 5) {
    fail("hardware_threads must be 2, 3 or 5");
  }
  if (!(alpha3 > 1.0 / 3.0) || alpha3 > 1.0) fail("alpha3 in (1/3, 1]");
  if (!(alpha5 > 1.0 / 5.0) || alpha5 > 1.0) fail("alpha5 in (1/5, 1]");
  if (adaptive_p_threshold < 0.0 || adaptive_p_threshold > 1.0) {
    fail("adaptive_p_threshold in [0, 1]");
  }
  if (adaptive_warmup < 0) fail("adaptive_warmup must be >= 0");
  if (permanent_detectable_prob < 0.0 || permanent_detectable_prob > 1.0) {
    fail("permanent_detectable_prob in [0, 1]");
  }
  if (permanent_affects_others_prob < 0.0 ||
      permanent_affects_others_prob > 1.0) {
    fail("permanent_affects_others_prob in [0, 1]");
  }
}

model::Params VdsOptions::to_model_params(double p) const {
  model::Params params;
  params.t = t;
  params.c = c;
  params.t_cmp = t_cmp;
  params.alpha = alpha;
  params.s = s;
  params.p = p;
  params.validate();
  return params;
}

}  // namespace vds::core
