#include "baseline/duplex.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/run_loop.hpp"

namespace vds::baseline {

using vds::fault::Fault;
using vds::fault::FaultKind;
using vds::fault::Victim;

void DuplexConfig::validate() const {
  RunConfig::validate();
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("DuplexConfig: ") + what);
  };
  if (!(t_cmp >= 0.0) || !std::isfinite(t_cmp)) {
    fail("t_cmp must be finite and >= 0");
  }
  if (max_consecutive_failures < 1) fail("max_consecutive_failures >= 1");
  if (processors < 2) fail("processors >= 2");
}

namespace {

/// One physical-duplex run on the shared loop: a round on both
/// processors, then the cross-processor compare.
class DuplexRun final : public vds::core::RunLoop {
 public:
  DuplexRun(const DuplexConfig& config, vds::fault::FaultTimeline& timeline,
            vds::sim::Rng& rng)
      : RunLoop(config), config_(config), timeline_(timeline), rng_(rng),
        round_time_(config.t + config.t_cmp) {}

  void step();

 private:
  const DuplexConfig& config_;
  vds::fault::FaultTimeline& timeline_;
  vds::sim::Rng& rng_;
  const double round_time_;
};

void DuplexRun::step() {
  bool corrupted_a = false;
  bool corrupted_b = false;
  bool processor_crash = false;
  double first_fault = -1.0;

  for (const Fault& fault :
       timeline_.drain_window(clock_, clock_ + round_time_)) {
    ++rep_.faults_seen;
    if (first_fault < 0.0) first_fault = fault.when;
    switch (fault.kind) {
      case FaultKind::kTransient:
        ++rep_.transient_faults;
        break;
      case FaultKind::kCrash:
        ++rep_.crash_faults;
        break;
      case FaultKind::kPermanent:
        ++rep_.permanent_faults;
        break;
      case FaultKind::kProcessorCrash:
        // Only one of the two processors crashes; the duplex detects
        // the divergence like any other fault.
        ++rep_.processor_crashes;
        processor_crash = true;
        break;
    }
    // Each processor hosts one version: the victim attribute maps
    // directly onto a physical processor.
    const bool hits_a =
        fault.victim == Victim::kVersion1 ||
        (fault.victim == Victim::kAnyActive && rng_.bernoulli(0.5));
    if (hits_a) {
      corrupted_a = true;
    } else {
      corrupted_b = true;
    }
  }
  clock_ += round_time_;
  ++rep_.comparisons;

  if (!corrupted_a && !corrupted_b && !processor_crash) {
    ++i_;
    if (checkpoint_due()) commit_checkpoint();
    return;
  }

  // Mismatch detected at the end of this round.
  ++rep_.detections;
  if (first_fault >= 0.0) rep_.detection_latency.add(clock_ - first_fault);
  const double recovery_start = clock_;
  const std::uint64_t ic = i_ + 1;

  // Version 3 replays the interval on one processor at full speed.
  clock_ += config_.checkpoint_read_latency;
  clock_ += static_cast<double>(ic) * config_.t + 2.0 * config_.t_cmp;
  rep_.comparisons += 2;

  if (corrupted_a != corrupted_b) {
    // Exactly one version corrupted: majority vote succeeds.
    ++rep_.recoveries_ok;
    i_ = ic;
    consecutive_failures_ = 0;
    if (checkpoint_due()) commit_checkpoint();
  } else {
    // Both corrupted (or a processor crash): no majority -> rollback.
    roll_back();
    count_failure(config_.max_consecutive_failures);
  }
  rep_.recovery_time.add(clock_ - recovery_start);
}

}  // namespace

PhysicalDuplex::PhysicalDuplex(DuplexConfig config, vds::sim::Rng rng)
    : config_(config), rng_(rng) {
  config_.validate();
}

vds::core::RunReport PhysicalDuplex::run(vds::fault::FaultTimeline& timeline,
                                         vds::sim::Trace* /*trace*/) {
  DuplexRun duplex(config_, timeline, rng_);
  return duplex.run([&duplex] { duplex.step(); }, [] {});
}

}  // namespace vds::baseline
