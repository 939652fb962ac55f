#include "core/replay_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/run_loop.hpp"
#include "replay/replay_core.hpp"
#include "runtime/metrics.hpp"

namespace vds::core {

namespace metrics = vds::runtime::metrics;

using vds::fault::Fault;
using vds::fault::FaultKind;
using vds::fault::Victim;
using vds::replay::RecordLog;
using vds::replay::Replayer;
using vds::replay::RoundRecord;
using vds::replay::WindowVerdict;

void ReplayConfig::validate() const {
  RunConfig::validate();
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("ReplayConfig: ") + what);
  };
  if (!(alpha >= 0.5) || alpha > 1.0) fail("alpha in [0.5, 1]");
  if (!(record_overhead >= 0.0) || !std::isfinite(record_overhead)) {
    fail("record_overhead must be finite and >= 0");
  }
  if (window < 1) fail("window >= 1");
  if (!(compare_time >= 0.0) || !std::isfinite(compare_time)) {
    fail("compare_time must be finite and >= 0");
  }
  if (max_consecutive_failures < 1) fail("max_consecutive_failures >= 1");
}

namespace {

constexpr std::uint64_t kInitialState = 0x5eed5eed5eed5eedull;

/// One record/replay run on the shared loop. The loop's committed
/// rounds are the rounds verified by replay: `base_` is the verified
/// round of the stable-storage checkpoint and `i_` counts the rounds
/// verified since.
class ReplayRun final : public RunLoop {
 public:
  ReplayRun(const ReplayConfig& config, vds::fault::FaultTimeline& timeline)
      : RunLoop(config), config_(config), timeline_(timeline),
        record_round_(config.alpha * config.t *
                      (1.0 + config.record_overhead)) {}

  /// Records the next window while the previous one replays on the
  /// second context, then compares the replayed window.
  void step();

  /// Record and replay run the same code on the same broken unit, so a
  /// permanent defect corrupts both digests identically: a completed
  /// job that met one is silently wrong.
  void check_completed_job() { rep_.silent_corruption = permanent_struck_; }

  /// Folds the replay-only counts; the shared ones fold in RunLoop.
  void fold_metrics() const;

 private:
  /// One detected failure. Two executions, no vote: restore both
  /// contexts from the stable-storage checkpoint, or from the
  /// replayer's verified in-memory state, and trip fail-safe after
  /// repeated failures.
  void recover(bool from_checkpoint);

  const ReplayConfig& config_;
  vds::fault::FaultTimeline& timeline_;
  const double record_round_;
  std::uint64_t primary_state_ = kInitialState;
  std::uint64_t checkpoint_state_ = kInitialState;
  RecordLog log_;
  Replayer replayer_{kInitialState};
  std::vector<RoundRecord> in_flight_;  // window replaying this step
  std::uint64_t in_flight_corrupt_ = 0;
  double pending_since_ = -1.0;  // earliest undetected fault
  bool permanent_struck_ = false;
  std::uint64_t windows_compared_ = 0;
  std::uint64_t window_mismatches_ = 0;
  std::uint64_t rounds_recorded_ = 0;
};

void ReplayRun::recover(bool from_checkpoint) {
  ++rep_.detections;
  if (pending_since_ >= 0.0) {
    rep_.detection_latency.add(clock_ - pending_since_);
  }
  const double recovery_start = clock_;
  std::uint64_t state = replayer_.state();
  if (from_checkpoint) {
    roll_back();
    state = checkpoint_state_;
  } else {
    ++rep_.rollbacks;
  }
  primary_state_ = state;
  replayer_.reset(state);
  log_.rewind_to(base_ + i_);
  in_flight_.clear();
  in_flight_corrupt_ = 0;
  pending_since_ = -1.0;
  rep_.recovery_time.add(clock_ - recovery_start);
  count_failure(config_.max_consecutive_failures);
}

void ReplayRun::step() {
  const auto window = static_cast<std::uint64_t>(config_.window);
  bool context_crash = false;
  bool replayer_crashed = false;
  bool processor_crash = false;
  // A drained window (no recording left to overlap) replays alone on
  // the core at full speed.
  const bool tail = log_.next_index() >= config_.job_rounds;
  const double step_round = tail ? config_.t : record_round_;
  const std::uint64_t step_rounds =
      tail ? static_cast<std::uint64_t>(in_flight_.size())
           : std::min<std::uint64_t>(window,
                                     config_.job_rounds - log_.next_index());

  const auto note_pending = [this](double when) {
    if (pending_since_ < 0.0 || when < pending_since_) pending_since_ = when;
  };
  for (std::uint64_t n = 0; n < step_rounds; ++n) {
    const auto faults = timeline_.drain_window(clock_, clock_ + step_round);
    clock_ += step_round;
    std::uint64_t primary_corrupt = 0;
    for (const Fault& fault : faults) {
      ++rep_.faults_seen;
      switch (fault.kind) {
        case FaultKind::kTransient: {
          ++rep_.transient_faults;
          // During the tail drain only the replayer is executing, so
          // every transient lands on it.
          const bool hits_replayer = tail || fault.victim == Victim::kVersion2;
          const std::uint64_t bits =
              0x1ull << (fault.bit % 63u) | (std::uint64_t{fault.word} << 1);
          if (hits_replayer) {
            in_flight_corrupt_ ^= bits | 1u;
          } else {
            primary_corrupt ^= bits | 1u;
          }
          note_pending(fault.when);
          break;
        }
        case FaultKind::kCrash:
          ++rep_.crash_faults;
          note_pending(fault.when);
          context_crash = true;
          replayer_crashed = tail || fault.victim == Victim::kVersion2;
          break;
        case FaultKind::kPermanent:
          ++rep_.permanent_faults;
          permanent_struck_ = true;
          break;
        case FaultKind::kProcessorCrash:
          ++rep_.processor_crashes;
          note_pending(fault.when);
          processor_crash = true;
          break;
      }
    }
    if (!tail) {
      const std::uint64_t index = log_.next_index();
      const std::uint64_t input =
          vds::replay::round_input(/*job_seed=*/1, index);
      primary_state_ =
          vds::replay::round_outcome(primary_state_, index, input) ^
          primary_corrupt;
      log_.append({index, input, primary_state_});
      ++rounds_recorded_;
    }
    if (context_crash || processor_crash) break;
  }

  // A processor crash loses both contexts; only the stable-storage
  // checkpoint survives. A single-context crash is detected at once: a
  // primary crash leaves the replayer's verified state intact (cheap
  // restore), a crash of the replayer itself loses it.
  if (processor_crash || context_crash) {
    recover(processor_crash || replayer_crashed);
    return;
  }

  // --- compare the window whose replay just finished ----------------
  if (!in_flight_.empty()) {
    clock_ += config_.compare_time;
    ++rep_.comparisons;
    ++windows_compared_;
    const WindowVerdict verdict =
        replayer_.replay(in_flight_, in_flight_corrupt_);
    in_flight_corrupt_ = 0;
    if (!verdict.match) {
      // Conservatively discard everything past the verified frontier
      // and re-execute.
      ++window_mismatches_;
      recover(/*from_checkpoint=*/false);
      return;
    }
    i_ += verdict.rounds;
    consecutive_failures_ = 0;
    pending_since_ = -1.0;
    if (checkpoint_due()) {
      commit_checkpoint();
      checkpoint_state_ = replayer_.state();
    }
    in_flight_.clear();
  }

  // --- hand the freshly recorded window to the replayer -------------
  in_flight_ = log_.take_window(static_cast<std::size_t>(window));
}

// Pure functions of (config, timeline), never of scheduling, so they
// fold into deterministic global counters.
void ReplayRun::fold_metrics() const {
  using metrics::Determinism;
  auto& reg = metrics::registry();
  static auto& windows =
      reg.counter("replay.windows_compared", Determinism::kDeterministic);
  static auto& mismatches =
      reg.counter("replay.window_mismatches", Determinism::kDeterministic);
  static auto& recorded =
      reg.counter("replay.rounds_recorded", Determinism::kDeterministic);
  windows.add(windows_compared_);
  mismatches.add(window_mismatches_);
  recorded.add(rounds_recorded_);
}

}  // namespace

ReplayVds::ReplayVds(ReplayConfig config, vds::sim::Rng rng)
    : config_(config), rng_(rng) {
  config_.validate();
}

RunReport ReplayVds::run(vds::fault::FaultTimeline& timeline,
                         vds::sim::Trace* /*trace*/) {
  ReplayRun replay(config_, timeline);
  const RunReport rep = replay.run([&replay] { replay.step(); },
                                   [&replay] { replay.check_completed_job(); });
  replay.fold_metrics();
  return rep;
}

}  // namespace vds::core
