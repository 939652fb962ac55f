#include "core/platform_cores.hpp"

#include <string>

namespace vds::core {

using vds::checkpoint::VersionState;
using vds::fault::Fault;
using vds::fault::FaultKind;
using vds::sim::TraceKind;

// --- conventional processor --------------------------------------------

void ConventionalCore::apply_fault(const Fault& fault, EngineSlot* occupant,
                                   VersionState* retry_state,
                                   bool* retry_crashed) {
  ++rep_.faults_seen;
  record(TraceKind::kFaultInjected,
         [&] { return TraceText{"fault", fault.describe()}; });
  switch (fault.kind) {
    case FaultKind::kTransient: {
      ++rep_.transient_faults;
      if (retry_state != nullptr) {
        flip_distinct(*retry_state, fault.word, fault.bit);
        note_pending(fault, /*slot_hit=*/-1);
        return;
      }
      EngineSlot& victim = occupant != nullptr
                               ? *occupant
                               : (rng_.bernoulli(0.5) ? a_ : b_);
      victim.state.flip_bit(fault.word, fault.bit);
      note_pending(fault, &victim == &a_ ? 0 : 1);
      return;
    }
    case FaultKind::kCrash: {
      ++rep_.crash_faults;
      if (retry_crashed != nullptr) {
        *retry_crashed = true;
        note_pending(fault, -1);
        return;
      }
      EngineSlot& victim = occupant != nullptr
                               ? *occupant
                               : (rng_.bernoulli(0.5) ? a_ : b_);
      victim.crashed = true;
      note_pending(fault, &victim == &a_ ? 0 : 1);
      pending_crash_ = true;
      return;
    }
    case FaultKind::kPermanent: {
      ++rep_.permanent_faults;
      const bool exposed =
          rng_.bernoulli(opt_.permanent_detectable_prob);
      // The version computing now certainly exercises the broken
      // unit; the others may or may not, depending on diversity.
      const int victim_version =
          occupant != nullptr ? occupant->version_id
          : retry_state != nullptr
              ? spare_id_
              : (rng_.bernoulli(0.5) ? a_.version_id : b_.version_id);
      std::uint8_t mask = 0;
      for (int version = 1; version <= 3; ++version) {
        const bool affected =
            version == victim_version ||
            rng_.bernoulli(opt_.permanent_affects_others_prob);
        if (affected) {
          mask |= static_cast<std::uint8_t>(1u << (version - 1));
        }
      }
      vset_.set_permanent(fault.location, exposed, mask);
      if (exposed && ((mask >> (a_.version_id - 1)) & 1u ||
                      (mask >> (b_.version_id - 1)) & 1u)) {
        note_pending(fault, -1);
      }
      return;
    }
    case FaultKind::kProcessorCrash: {
      ++rep_.processor_crashes;
      processor_crash_ = true;
      return;
    }
  }
}

void ConventionalCore::drain(double from, double to, EngineSlot* occupant,
                             VersionState* retry_state,
                             bool* retry_crashed) {
  for (const Fault& fault : timeline_.drain_window(from, to)) {
    apply_fault(fault, occupant, retry_state, retry_crashed);
  }
}

void ConventionalCore::step_round() {
  const std::uint64_t round = base_ + i_ + 1;

  // Version in slot A computes its round.
  record(TraceKind::kRoundStart, [&] {
    return TraceText{"V" + std::to_string(a_.version_id),
                     "round " + std::to_string(round)};
  });
  vset_.advance(a_.state, round, a_.version_id);
  drain(clock_, clock_ + opt_.t, &a_);
  clock_ += opt_.t;
  record(TraceKind::kRoundEnd, [&] {
    return TraceText{"V" + std::to_string(a_.version_id), ""};
  });
  if (handle_processor_crash()) return;

  // Context switch.
  record(TraceKind::kContextSwitch, [] { return TraceText{"os", ""}; });
  drain(clock_, clock_ + opt_.c, nullptr);
  clock_ += opt_.c;
  if (handle_processor_crash()) return;

  // Version in slot B computes its round.
  record(TraceKind::kRoundStart, [&] {
    return TraceText{"V" + std::to_string(b_.version_id),
                     "round " + std::to_string(round)};
  });
  vset_.advance(b_.state, round, b_.version_id);
  drain(clock_, clock_ + opt_.t, &b_);
  clock_ += opt_.t;
  record(TraceKind::kRoundEnd, [&] {
    return TraceText{"V" + std::to_string(b_.version_id), ""};
  });
  if (handle_processor_crash()) return;

  record(TraceKind::kContextSwitch, [] { return TraceText{"os", ""}; });
  drain(clock_, clock_ + opt_.c, nullptr);
  clock_ += opt_.c;
  if (handle_processor_crash()) return;

  // State comparison + mismatch handling (shared protocol tail).
  compare_and_dispatch(round);
}

// --- SMT processor -----------------------------------------------------

void SmtCore::apply_normal(const Fault& fault) {
  ++rep_.faults_seen;
  record(TraceKind::kFaultInjected,
         [&] { return TraceText{"fault", fault.describe()}; });
  switch (fault.kind) {
    case FaultKind::kTransient: {
      ++rep_.transient_faults;
      EngineSlot& victim = resolve_victim(fault);
      victim.state.flip_bit(fault.word, fault.bit);
      note_pending(fault, &victim == &a_ ? 0 : 1);
      return;
    }
    case FaultKind::kCrash: {
      ++rep_.crash_faults;
      EngineSlot& victim = resolve_victim(fault);
      victim.crashed = true;
      note_pending(fault, &victim == &a_ ? 0 : 1);
      return;
    }
    case FaultKind::kPermanent: {
      activate_permanent(fault, resolve_victim(fault).version_id);
      return;
    }
    case FaultKind::kProcessorCrash: {
      ++rep_.processor_crashes;
      processor_crash_ = true;
      return;
    }
  }
}

EngineSlot& SmtCore::resolve_victim(const Fault& fault) {
  switch (fault.victim) {
    case vds::fault::Victim::kVersion1: return a_;
    case vds::fault::Victim::kVersion2: return b_;
    case vds::fault::Victim::kAnyActive:
      return rng_.bernoulli(0.5) ? a_ : b_;
  }
  return a_;
}

void SmtCore::activate_permanent(const Fault& fault, int victim_version) {
  ++rep_.permanent_faults;
  const bool exposed = rng_.bernoulli(opt_.permanent_detectable_prob);
  std::uint8_t mask = 0;
  for (int version = 1; version <= 3; ++version) {
    const bool affected =
        version == victim_version ||
        rng_.bernoulli(opt_.permanent_affects_others_prob);
    if (affected) mask |= static_cast<std::uint8_t>(1u << (version - 1));
  }
  vset_.set_permanent(fault.location, exposed, mask);
  if (exposed && ((mask >> (a_.version_id - 1)) & 1u ||
                  (mask >> (b_.version_id - 1)) & 1u)) {
    note_pending(fault, -1);
  }
}

void SmtCore::step_round() {
  const std::uint64_t round = base_ + i_ + 1;
  const double round_time = 2.0 * opt_.alpha * opt_.t;

  // Both versions compute their round in parallel hardware threads.
  record(TraceKind::kRoundStart, [&] {
    return TraceText{"HT", "round " + std::to_string(round) + " V" +
                               std::to_string(a_.version_id) + "||V" +
                               std::to_string(b_.version_id)};
  });
  vset_.advance(a_.state, round, a_.version_id);
  vset_.advance(b_.state, round, b_.version_id);
  drain_background(clock_, clock_ + round_time);
  clock_ += round_time;
  record(TraceKind::kRoundEnd, [] { return TraceText{"HT", ""}; });
  if (handle_processor_crash()) return;

  // State comparison + mismatch handling (shared protocol tail).
  compare_and_dispatch(round);
}

}  // namespace vds::core
