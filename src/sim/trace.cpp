#include "sim/trace.hpp"

#include <iomanip>

namespace vds::sim {

std::string_view to_string(TraceKind kind) noexcept {
  switch (kind) {
    case TraceKind::kRoundStart: return "round_start";
    case TraceKind::kRoundEnd: return "round_end";
    case TraceKind::kContextSwitch: return "context_switch";
    case TraceKind::kCompare: return "compare";
    case TraceKind::kCompareMismatch: return "compare_mismatch";
    case TraceKind::kCheckpoint: return "checkpoint";
    case TraceKind::kFaultInjected: return "fault_injected";
    case TraceKind::kFaultDetected: return "fault_detected";
    case TraceKind::kRetryStart: return "retry_start";
    case TraceKind::kRetryEnd: return "retry_end";
    case TraceKind::kRollForwardStart: return "roll_forward_start";
    case TraceKind::kRollForwardEnd: return "roll_forward_end";
    case TraceKind::kRollForwardDiscarded: return "roll_forward_discarded";
    case TraceKind::kMajorityVote: return "majority_vote";
    case TraceKind::kRollback: return "rollback";
    case TraceKind::kPrediction: return "prediction";
    case TraceKind::kStateCopy: return "state_copy";
    case TraceKind::kJobDone: return "job_done";
    case TraceKind::kFailSafeShutdown: return "fail_safe_shutdown";
    case TraceKind::kInfo: return "info";
  }
  return "unknown";
}

void Trace::record(SimTime when, std::string actor, TraceKind kind,
                   std::string detail) {
  if (!enabled_) return;
  if (cap_ != 0 && records_.size() >= cap_) {
    ++dropped_;
    return;
  }
  records_.push_back(
      TraceRecord{when, std::move(actor), kind, std::move(detail)});
}

std::size_t Trace::count(TraceKind kind) const noexcept {
  std::size_t n = 0;
  for (const auto& rec : records_) {
    if (rec.kind == kind) ++n;
  }
  return n;
}

void Trace::dump(std::ostream& os) const {
  const auto flags = os.flags();
  os << std::fixed << std::setprecision(4);
  for (const auto& rec : records_) {
    os << std::setw(12) << rec.when << "  " << std::setw(8) << rec.actor
       << "  " << std::setw(22) << to_string(rec.kind);
    if (!rec.detail.empty()) os << "  " << rec.detail;
    os << '\n';
  }
  if (dropped_ != 0) os << "(" << dropped_ << " records dropped)\n";
  os.flags(flags);
}

}  // namespace vds::sim
