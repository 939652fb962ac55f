#include "core/protocol_core.hpp"

#include <string>

#include "fault/detector.hpp"
#include "runtime/metrics.hpp"

namespace vds::core {

using vds::checkpoint::VersionState;
using vds::fault::Fault;
using vds::sim::TraceKind;

ProtocolCore::ProtocolCore(const VdsOptions& options, vds::sim::Rng& rng,
                           vds::fault::FaultTimeline& timeline,
                           vds::sim::Trace* trace, RecoveryPolicy& policy)
    : RunLoop(options), opt_(options), rng_(rng), timeline_(timeline),
      trace_(trace), vset_(options),
      store_(options.checkpoint_write_latency),
      policy_(policy) {
  a_.state = vset_.initial_state();
  b_.state = a_.state;
  a_.version_id = 1;
  b_.version_id = 2;
  store_.save(0, a_.state, 0.0);  // initial checkpoint (setup, free)
}

void ProtocolCore::check_committed_state() {
  const auto& golden = vset_.golden_at(rep_.rounds_committed);
  rep_.silent_corruption = !vds::fault::states_match(a_.state, golden) ||
                           !vds::fault::states_match(b_.state, golden);
  record(TraceKind::kJobDone, [] { return TraceText{"VDS", ""}; });
}

void ProtocolCore::drain_background(double from, double to) {
  for (const Fault& fault : timeline_.drain_window(from, to)) {
    apply_background_fault(fault);
  }
}

void ProtocolCore::note_pending(const Fault& fault, int slot_hit) {
  if (pending_since_ < 0.0) {
    pending_since_ = fault.when;
    pending_location_ = fault.location;
    pending_slot_ = slot_hit;
    pending_crash_ = fault.kind == vds::fault::FaultKind::kCrash;
    pending_word_ = fault.word;
    pending_bit_ = fault.bit;
  }
}

void ProtocolCore::clear_pending() {
  pending_since_ = -1.0;
  pending_slot_ = -1;
  pending_crash_ = false;
}

void ProtocolCore::flip_distinct(VersionState& state, std::uint32_t word,
                                 std::uint8_t bit) const {
  const std::size_t words = opt_.state_words;
  if (pending_since_ >= 0.0 && word % words == pending_word_ % words &&
      bit % 64 == pending_bit_ % 64) {
    bit = static_cast<std::uint8_t>((bit + 1) % 64);
  }
  state.flip_bit(word, bit);
}

void ProtocolCore::maybe_checkpoint() {
  if (!checkpoint_due()) return;
  drain_background(clock_, clock_ + opt_.checkpoint_write_latency);
  store_.save(base_ + i_, a_.state, clock_);
  commit_checkpoint();
  record(TraceKind::kCheckpoint, [&] {
    return TraceText{"VDS", numbered("round ", base_)};
  });
}

void ProtocolCore::rollback() {
  drain_background(clock_, clock_ + opt_.checkpoint_read_latency);
  roll_back();
  const VersionState& checkpoint = store_.latest()->state;
  a_.state = checkpoint;
  b_.state = checkpoint;
  a_.crashed = b_.crashed = false;
  clear_pending();
  record(TraceKind::kRollback, [&] {
    return TraceText{"VDS", numbered("to round ", base_)};
  });
  if (count_failure(opt_.max_consecutive_failures)) {
    record(TraceKind::kFailSafeShutdown, [&] {
      return TraceText{"VDS", numbered("after ", consecutive_failures_) +
                                  " consecutive failures"};
    });
  }
}

bool ProtocolCore::handle_processor_crash() {
  if (!processor_crash_) return false;
  processor_crash_ = false;
  record(TraceKind::kInfo,
         [] { return TraceText{"VDS", "processor crash: rollback"}; });
  rollback();
  return true;
}

void ProtocolCore::compare_and_dispatch(std::uint64_t round) {
  drain_background(clock_, clock_ + opt_.t_cmp);
  clock_ += opt_.t_cmp;
  ++rep_.comparisons;
  if (handle_processor_crash()) return;

  const bool mismatch =
      a_.crashed || b_.crashed ||
      vds::fault::compare_states(a_.state, b_.state) ==
          vds::fault::CompareOutcome::kMismatch;
  record(mismatch ? TraceKind::kCompareMismatch : TraceKind::kCompare,
         [&] { return TraceText{"VDS", numbered("round ", round)}; });

  if (!mismatch) {
    ++i_;
    clear_pending();
    maybe_checkpoint();
    return;
  }

  ++rep_.detections;
  record(TraceKind::kFaultDetected, [&] {
    return TraceText{"VDS", numbered("at round ", i_ + 1)};
  });
  if (pending_since_ >= 0.0) {
    rep_.detection_latency.add(clock_ - pending_since_);
  }
  policy_.recoveries().add();
  const double recovery_start = clock_;
  policy_.recover(*this);
  rep_.recovery_time.add(clock_ - recovery_start);
}

}  // namespace vds::core
