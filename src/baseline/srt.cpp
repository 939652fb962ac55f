#include "baseline/srt.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/run_loop.hpp"

namespace vds::baseline {

using vds::fault::Fault;
using vds::fault::FaultKind;

void SrtConfig::validate() const {
  RunConfig::validate();
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("SrtConfig: ") + what);
  };
  if (!(alpha >= 0.5) || alpha > 1.0) fail("alpha in [0.5, 1]");
  if (!(compare_overhead >= 0.0) || !std::isfinite(compare_overhead)) {
    fail("compare_overhead must be finite and >= 0");
  }
  if (chunks_per_round < 1) fail("chunks_per_round >= 1");
}

namespace {

/// One lockstep run on the shared loop: each round is a sequence of
/// compared chunks, and a fault is detected at the end of its chunk.
class SrtRun final : public vds::core::RunLoop {
 public:
  SrtRun(const SrtConfig& config, vds::fault::FaultTimeline& timeline)
      : RunLoop(config), config_(config), timeline_(timeline),
        // Both copies progress in lockstep at the SMT pair rate,
        // stretched by the always-on comparison hardware.
        chunk_time_(2.0 * config.alpha * config.t *
                    (1.0 + config.compare_overhead) /
                    static_cast<double>(config.chunks_per_round)) {}

  void step();

 private:
  const SrtConfig& config_;
  vds::fault::FaultTimeline& timeline_;
  const double chunk_time_;
};

void SrtRun::step() {
  const int chunks = config_.chunks_per_round;
  bool fault_detected = false;
  // Almost every chunk window is empty. The chunks that end no later
  // than the next fault only advance the clock: the same additions in
  // the same order as the full body below, whose drain would return
  // nothing and leave the cursor, and so next_time(), as is.
  const double next_fault = timeline_.next_time();
  double clock = clock_;
  int chunk = 0;
  for (double end = clock + chunk_time_; chunk < chunks && next_fault >= end;
       end = clock + chunk_time_) {
    clock = end;
    ++chunk;
  }
  clock_ = clock;
  rep_.comparisons += static_cast<std::uint64_t>(chunk);
  for (; chunk < chunks; ++chunk) {
    const std::vector<Fault> faults =
        timeline_.drain_window(clock_, clock_ + chunk_time_);
    clock_ += chunk_time_;
    for (const Fault& fault : faults) {
      ++rep_.faults_seen;
      switch (fault.kind) {
        case FaultKind::kTransient:
          ++rep_.transient_faults;
          fault_detected = true;
          break;
        case FaultKind::kCrash:
          ++rep_.crash_faults;
          fault_detected = true;
          break;
        case FaultKind::kPermanent:
          // Identical copies exercise the hardware identically: a
          // permanent fault corrupts both the same way. The sphere of
          // replication never sees a difference -- silent.
          ++rep_.permanent_faults;
          rep_.silent_corruption = true;
          break;
        case FaultKind::kProcessorCrash:
          ++rep_.processor_crashes;
          fault_detected = true;
          break;
      }
      if (fault_detected) {
        rep_.detection_latency.add(clock_ - fault.when);
      }
    }
    ++rep_.comparisons;
    if (fault_detected) break;
  }

  if (fault_detected) {
    ++rep_.detections;
    const double recovery_start = clock_;
    // Rollback: both copies restart from the checkpoint.
    roll_back();
    rep_.recovery_time.add(clock_ - recovery_start);
    return;
  }
  ++i_;
  if (checkpoint_due()) commit_checkpoint();
}

}  // namespace

LockstepSrt::LockstepSrt(SrtConfig config, vds::sim::Rng rng)
    : config_(config), rng_(rng) {
  config_.validate();
}

vds::core::RunReport LockstepSrt::run(vds::fault::FaultTimeline& timeline,
                                      vds::sim::Trace* /*trace*/) {
  SrtRun srt(config_, timeline);
  return srt.run([&srt] { srt.step(); }, [] {});
}

}  // namespace vds::baseline
