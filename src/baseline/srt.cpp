#include "baseline/srt.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace vds::baseline {

using vds::fault::Fault;
using vds::fault::FaultKind;

void SrtConfig::validate() const {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("SrtConfig: ") + what);
  };
  if (!(t > 0.0) || !std::isfinite(t)) fail("t must be finite and > 0");
  if (!(alpha >= 0.5) || alpha > 1.0) fail("alpha in [0.5, 1]");
  if (!(compare_overhead >= 0.0) || !std::isfinite(compare_overhead)) {
    fail("compare_overhead must be finite and >= 0");
  }
  if (chunks_per_round < 1) fail("chunks_per_round >= 1");
  if (s < 1) fail("s >= 1");
  if (job_rounds == 0) fail("job_rounds >= 1");
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

LockstepSrt::LockstepSrt(SrtConfig config, vds::sim::Rng rng)
    : config_(config), rng_(rng) {
  config_.validate();
}

vds::core::RunReport LockstepSrt::run(vds::fault::FaultTimeline& timeline,
                                      vds::sim::Trace* /*trace*/) {
  vds::core::RunReport rep;
  // Both copies progress in lockstep at the SMT pair rate, stretched by
  // the always-on comparison hardware.
  const double round_time =
      2.0 * config_.alpha * config_.t * (1.0 + config_.compare_overhead);
  const double chunk_time =
      round_time / static_cast<double>(config_.chunks_per_round);

  double clock = 0.0;
  std::uint64_t base = 0;  // rounds committed at last checkpoint
  std::uint64_t i = 0;     // rounds since checkpoint

  while (base + i < config_.job_rounds && clock <= config_.max_time) {
    // Execute one round as a sequence of compared chunks; a fault is
    // detected at the end of its chunk.
    bool fault_detected = false;
    bool processor_crash = false;
    // Almost every chunk window is empty. The chunks that end no later
    // than the next fault only advance the clock: the same additions in
    // the same order as the full body below, whose drain would return
    // nothing and leave the cursor, and so next_time(), as is.
    const double next_fault = timeline.next_time();
    int chunk = 0;
    for (double end = clock + chunk_time;
         chunk < config_.chunks_per_round && next_fault >= end;
         end = clock + chunk_time) {
      clock = end;
      ++chunk;
    }
    rep.comparisons += static_cast<std::uint64_t>(chunk);
    for (; chunk < config_.chunks_per_round; ++chunk) {
      const std::vector<Fault> faults =
          timeline.drain_window(clock, clock + chunk_time);
      clock += chunk_time;
      for (const Fault& fault : faults) {
        ++rep.faults_seen;
        switch (fault.kind) {
          case FaultKind::kTransient:
            ++rep.transient_faults;
            fault_detected = true;
            break;
          case FaultKind::kCrash:
            ++rep.crash_faults;
            fault_detected = true;
            break;
          case FaultKind::kPermanent:
            // Identical copies exercise the hardware identically: a
            // permanent fault corrupts both the same way. The sphere of
            // replication never sees a difference -- silent.
            ++rep.permanent_faults;
            rep.silent_corruption = true;
            break;
          case FaultKind::kProcessorCrash:
            ++rep.processor_crashes;
            processor_crash = true;
            fault_detected = true;
            break;
        }
        if (fault_detected) {
          rep.detection_latency.add(clock - fault.when);
        }
      }
      ++rep.comparisons;
      if (fault_detected) break;
    }

    if (fault_detected || processor_crash) {
      ++rep.detections;
      const double recovery_start = clock;
      // Rollback: both copies restart from the checkpoint.
      clock += config_.checkpoint_read_latency;
      i = 0;
      ++rep.rollbacks;
      rep.recovery_time.add(clock - recovery_start);
      continue;
    }

    ++i;
    if (i >= static_cast<std::uint64_t>(config_.s) ||
        base + i >= config_.job_rounds) {
      clock += config_.checkpoint_write_latency;
      ++rep.checkpoints;
      base += i;
      i = 0;
    }
  }

  rep.total_time = clock;
  rep.rounds_committed = std::min(base + i, config_.job_rounds);
  rep.completed = rep.rounds_committed >= config_.job_rounds;
  return rep;
}

}  // namespace vds::baseline
