#pragma once

#include "smt/core.hpp"

namespace vds::smt {

/// Result of an alpha measurement (the paper's central processor
/// parameter). With two threads running traces A and B:
///
///   alpha = T_together / (T_A_alone + T_B_alone)
///
/// alpha = 0.5 means perfect overlap (SMT hides everything), alpha = 1
/// means no benefit over time-sharing. The Pentium 4 figure quoted by
/// the paper is alpha ~ 0.65 [13].
struct AlphaMeasurement {
  std::uint64_t cycles_a_alone = 0;
  std::uint64_t cycles_b_alone = 0;
  std::uint64_t cycles_together = 0;
  double alpha = 1.0;
  double throughput_speedup = 1.0;  ///< (Ta + Tb) / T_together == 1/alpha
  double ipc_a_alone = 0.0;
  double ipc_b_alone = 0.0;
  double ipc_together = 0.0;  ///< combined IPC of the co-scheduled run
};

/// Measures alpha for a pair of traces on the given core configuration.
/// Runs each trace alone, then both together.
[[nodiscard]] AlphaMeasurement measure_alpha(const CoreConfig& config,
                                             FetchPolicy policy,
                                             const InstrTrace& a,
                                             const InstrTrace& b);

}  // namespace vds::smt
