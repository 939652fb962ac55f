#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace vds::sim {

/// Kinds of protocol-level events recorded by the VDS engines. The
/// trace of a run reconstructs the execution diagrams of Figure 1 and
/// the flow charts of Figures 2/3.
enum class TraceKind : std::uint8_t {
  kRoundStart,
  kRoundEnd,
  kContextSwitch,
  kCompare,
  kCompareMismatch,
  kCheckpoint,
  kFaultInjected,
  kFaultDetected,
  kRetryStart,
  kRetryEnd,
  kRollForwardStart,
  kRollForwardEnd,
  kRollForwardDiscarded,
  kMajorityVote,
  kRollback,
  kPrediction,
  kStateCopy,
  kJobDone,
  kFailSafeShutdown,
  kInfo,
};

[[nodiscard]] std::string_view to_string(TraceKind kind) noexcept;

/// One trace record: when, who (actor, e.g. "V1" or "thread0"),
/// what (kind) and free-form detail.
struct TraceRecord {
  SimTime when = 0.0;
  std::string actor;
  TraceKind kind = TraceKind::kInfo;
  std::string detail;
};

/// Append-only trace sink with optional size cap.
/// Recording can be disabled entirely for long statistical runs.
class Trace {
 public:
  /// cap == 0 means unbounded.
  explicit Trace(bool enabled = true, std::size_t cap = 0)
      : enabled_(enabled), cap_(cap) {}

  void record(SimTime when, std::string actor, TraceKind kind,
              std::string detail = {});

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  [[nodiscard]] const std::vector<TraceRecord>& records() const noexcept {
    return records_;
  }

  /// Number of records of the given kind.
  [[nodiscard]] std::size_t count(TraceKind kind) const noexcept;

  /// Writes a human-readable timeline, one record per line.
  void dump(std::ostream& os) const;

 private:
  bool enabled_;
  std::size_t cap_;
  std::vector<TraceRecord> records_;
  std::size_t dropped_ = 0;
};

}  // namespace vds::sim
