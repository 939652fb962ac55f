#include "core/recovery_policy.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "core/platform_cores.hpp"
#include "fault/detector.hpp"
#include "fault/predictor.hpp"
#include "runtime/metrics.hpp"

namespace vds::core {

namespace metrics = vds::runtime::metrics;

using vds::checkpoint::VersionState;
using vds::fault::Fault;
using vds::fault::FaultEvidence;
using vds::fault::FaultKind;
using vds::fault::VersionGuess;
using vds::fault::states_match;
using vds::sim::TraceKind;

namespace {

metrics::Counter& named_counter(std::string_view prefix,
                                std::string_view name) {
  return metrics::registry().counter(
      std::string(prefix) + std::string(name),
      metrics::Determinism::kDeterministic);
}

// One counter per scheme, each a function-local static so the
// registry lookup runs once and a scheme that never recovers never
// registers (the golden counter files list no zero entries).
template <RecoveryScheme kScheme>
metrics::Counter& scheme_counter() {
  static metrics::Counter& counter =
      named_counter("engine.scheme.", short_name(kScheme));
  return counter;
}

metrics::Counter& scheme_counter(RecoveryScheme scheme) {
  switch (scheme) {
    case RecoveryScheme::kRollback:
      return scheme_counter<RecoveryScheme::kRollback>();
    case RecoveryScheme::kStopAndRetry:
      return scheme_counter<RecoveryScheme::kStopAndRetry>();
    case RecoveryScheme::kRollForwardDet:
      return scheme_counter<RecoveryScheme::kRollForwardDet>();
    case RecoveryScheme::kRollForwardProb:
      return scheme_counter<RecoveryScheme::kRollForwardProb>();
    case RecoveryScheme::kRollForwardPredict:
      break;
  }
  return scheme_counter<RecoveryScheme::kRollForwardPredict>();
}

}  // namespace

metrics::Counter& RollbackPolicy::recoveries() const {
  static metrics::Counter& counter =
      named_counter("engine.recoveries.", name());
  return counter;
}

metrics::Counter& StopAndRetryPolicy::recoveries() const {
  static metrics::Counter& counter =
      named_counter("engine.recoveries.", name());
  return counter;
}

metrics::Counter& SmtRecoveryPolicy::recoveries() const {
  static metrics::Counter& counter =
      named_counter("engine.recoveries.", name());
  return counter;
}

// --- conventional stop-and-retry ---------------------------------------

void StopAndRetryPolicy::recover(ProtocolCore& core) {
  auto& c = static_cast<ConventionalCore&>(core);
  const std::uint64_t ic = c.i_ + 1;  // mismatch found at round ic
  c.record(TraceKind::kRetryStart, [&] {
    return TraceText{numbered("V", c.spare_id_),
                     numbered("replay ", ic) + " rounds"};
  });

  // Version 3 loads the checkpoint...
  c.drain(c.clock_, c.clock_ + c.opt_.checkpoint_read_latency, nullptr);
  c.clock_ += c.opt_.checkpoint_read_latency;
  VersionState retry = c.store_.latest()->state;
  bool retry_crashed = false;

  // ...and replays the interval, round by round, itself exposed to
  // new faults while it runs.
  for (std::uint64_t r = 1; r <= ic; ++r) {
    c.vset_.advance(retry, c.base_ + r, c.spare_id_);
    c.drain(c.clock_, c.clock_ + c.opt_.t, nullptr, &retry,
            &retry_crashed);
    c.clock_ += c.opt_.t;
    if (c.processor_crash_) break;
  }
  if (c.handle_processor_crash()) return;
  c.record(TraceKind::kRetryEnd, [&] {
    return TraceText{numbered("V", c.spare_id_), ""};
  });

  // Majority vote: two comparisons.
  c.drain(c.clock_, c.clock_ + 2.0 * c.opt_.t_cmp, nullptr);
  c.clock_ += 2.0 * c.opt_.t_cmp;
  c.rep_.comparisons += 2;
  if (c.handle_processor_crash()) return;

  const bool s_matches_a = !retry_crashed && !c.a_.crashed &&
                           states_match(retry, c.a_.state);
  const bool s_matches_b = !retry_crashed && !c.b_.crashed &&
                           states_match(retry, c.b_.state);

  if (s_matches_a == s_matches_b) {
    // Either all three agree (cannot happen after a mismatch) or all
    // three differ: no majority -> rollback (paper §3.1).
    c.record(TraceKind::kMajorityVote,
             [] { return TraceText{"VDS", "no majority"}; });
    c.rollback();
    return;
  }

  EngineSlot& faulty = s_matches_a ? c.b_ : c.a_;
  c.record(TraceKind::kMajorityVote, [&] {
    return TraceText{"VDS",
                     numbered("V", faulty.version_id) + " faulty"};
  });

  // The fault-free retry state replaces the faulty version; version 3
  // takes over that slot and the previous occupant becomes the spare.
  faulty.state = retry;
  faulty.crashed = false;
  std::swap(faulty.version_id, c.spare_id_);
  c.record(TraceKind::kStateCopy, [&] {
    return TraceText{"VDS", numbered("V", faulty.version_id) +
                                " joins duplex"};
  });

  c.i_ = ic;
  c.consecutive_failures_ = 0;
  ++c.rep_.recoveries_ok;
  c.clear_pending();
  c.maybe_checkpoint();
}

// --- adaptive scheme selection -----------------------------------------

RecoveryScheme AdaptiveSchemeSelector::choose(ProtocolCore& core) {
  // Our extension of the paper's Section-5 outlook: trust the
  // predictor's measured accuracy to decide between guaranteed
  // (deterministic) and larger-expected (probabilistic) roll-forward.
  const bool trusted =
      core.rep_.predictions >=
      static_cast<std::uint64_t>(core.opt_.adaptive_warmup);
  const RecoveryScheme chosen =
      trusted &&
              core.rep_.predictor_accuracy() >= core.opt_.adaptive_p_threshold
          ? RecoveryScheme::kRollForwardProb
          : RecoveryScheme::kRollForwardDet;
  if (last_choice_ != chosen) {
    if (core.rep_.adaptive_det_recoveries +
            core.rep_.adaptive_prob_recoveries >
        0) {
      ++core.rep_.scheme_switches;
    }
    last_choice_ = chosen;
  }
  if (chosen == RecoveryScheme::kRollForwardProb) {
    ++core.rep_.adaptive_prob_recoveries;
  } else {
    ++core.rep_.adaptive_det_recoveries;
  }
  return chosen;
}

// --- SMT roll-forward recovery -----------------------------------------

std::uint64_t SmtRecoveryPolicy::intended_roll_forward(
    const VdsOptions& opt, RecoveryScheme scheme,
    std::uint64_t ic) const noexcept {
  switch (scheme) {
    case RecoveryScheme::kRollForwardDet:
      return opt.hardware_threads >= 5 ? ic : ic / 4;
    case RecoveryScheme::kRollForwardProb:
      return opt.hardware_threads >= 3 ? ic : ic / 2;
    case RecoveryScheme::kRollForwardPredict:
      return ic;
    default:
      return 0;
  }
}

double SmtRecoveryPolicy::recovery_window(const VdsOptions& opt,
                                          RecoveryScheme scheme,
                                          std::uint64_t ic) const noexcept {
  if (scheme == RecoveryScheme::kStopAndRetry) {
    // Thread 2 idles; a single active thread runs at conventional
    // speed (paper footnote 1).
    return static_cast<double>(ic) * opt.t;
  }
  int k = 2;
  double alpha_k = opt.alpha;
  if (scheme == RecoveryScheme::kRollForwardProb &&
      opt.hardware_threads >= 3) {
    k = 3;
    alpha_k = opt.alpha3;
  } else if (scheme == RecoveryScheme::kRollForwardDet &&
             opt.hardware_threads >= 5) {
    k = 5;
    alpha_k = opt.alpha5;
  }
  return static_cast<double>(k) * static_cast<double>(ic) * alpha_k *
         opt.t;
}

void SmtRecoveryPolicy::recover(ProtocolCore& core) {
  auto& c = static_cast<SmtCore&>(core);
  vds::fault::Predictor& predictor = c.predictor();
  const std::uint64_t ic = c.i_ + 1;

  const RecoveryScheme scheme = selector_->choose(c);
  scheme_counter(scheme).add();

  const std::uint64_t cap =
      static_cast<std::uint64_t>(c.opt_.s) >= ic
          ? static_cast<std::uint64_t>(c.opt_.s) - ic
          : 0;
  const std::uint64_t rf =
      std::min(intended_roll_forward(c.opt_, scheme, ic), cap);
  const bool scheme_prob = scheme == RecoveryScheme::kRollForwardProb;
  const bool scheme_det = scheme == RecoveryScheme::kRollForwardDet;
  const bool scheme_predict =
      scheme == RecoveryScheme::kRollForwardPredict;
  // With the adaptive selector, deterministic recoveries still consult
  // (and feed back) the predictor so its accuracy keeps learning.
  const bool consult_predictor =
      scheme_prob || scheme_predict || selector_->consults_predictor();

  // --- prediction (who is faulty?) -----------------------------------
  FaultEvidence evidence;
  int guessed_faulty_slot = -1;  // 0 = slot A, 1 = slot B
  if (consult_predictor) {
    evidence.round = c.base_ + ic;
    evidence.location = c.pending_location_;
    if (c.a_.crashed) evidence.crashed = VersionGuess::kVersion1;
    if (c.b_.crashed) evidence.crashed = VersionGuess::kVersion2;
    // An oracle predictor is told the ground truth out-of-band.
    if (auto* oracle =
            dynamic_cast<vds::fault::OraclePredictor*>(&predictor)) {
      oracle->plant_truth(c.pending_slot_ == 1 ? VersionGuess::kVersion2
                                               : VersionGuess::kVersion1);
    }
    const VersionGuess guess = predictor.predict(evidence);
    guessed_faulty_slot = guess == VersionGuess::kVersion1 ? 0 : 1;
    c.record(TraceKind::kPrediction, [&] {
      return TraceText{"VDS", std::string("guess faulty = slot ") +
                                  (guessed_faulty_slot == 0 ? "A" : "B")};
    });
  }

  // --- load checkpoint ------------------------------------------------
  c.drain_background(c.clock_,
                     c.clock_ + c.opt_.checkpoint_read_latency);
  c.clock_ += c.opt_.checkpoint_read_latency;
  c.record(TraceKind::kRetryStart, [&] {
    return TraceText{"T1", numbered("V", c.spare_id_) +
                               numbered(" replays ", ic) + " rounds"};
  });
  if (rf > 0) {
    c.record(TraceKind::kRollForwardStart, [&] {
      return TraceText{"T2", std::string(to_string(scheme)) +
                                 numbered(" rf=", rf)};
    });
  }

  // --- drain the whole recovery window and bucket the faults ---------
  const double window = recovery_window(c.opt_, scheme, ic);
  std::vector<Fault> window_faults =
      c.timeline_.drain_window(c.clock_, c.clock_ + window);
  c.clock_ += window;

  bool retry_hit = false;
  bool retry_crashed = false;
  std::uint32_t retry_word = 0;
  std::uint8_t retry_bit = 0;
  // Roll-forward corruption per segment (probabilistic/predict use
  // segment 0/1; deterministic uses 0..3).
  bool segment_hit[4] = {false, false, false, false};
  std::uint32_t flip_word[4] = {0, 0, 0, 0};
  std::uint8_t flip_bit[4] = {0, 0, 0, 0};

  for (const Fault& fault : window_faults) {
    ++c.rep_.faults_seen;
    c.record(TraceKind::kFaultInjected,
             [&] { return TraceText{"fault", fault.describe()}; });
    switch (fault.kind) {
      case FaultKind::kTransient:
      case FaultKind::kCrash: {
        if (fault.kind == FaultKind::kTransient) {
          ++c.rep_.transient_faults;
        } else {
          ++c.rep_.crash_faults;
        }
        // Thread 1 (the retry) and thread 2 (roll-forward) are both
        // occupied; the victim thread is effectively random.
        if (c.rng_.bernoulli(0.5) || rf == 0) {
          retry_hit = true;
          retry_word = fault.word;
          retry_bit = fault.bit;
          if (fault.kind == FaultKind::kCrash) retry_crashed = true;
        } else {
          const auto seg = static_cast<std::size_t>(c.rng_.uniform_index(
              scheme_det ? 4 : (scheme_prob ? 2 : 1)));
          segment_hit[seg] = true;
          flip_word[seg] = fault.word;
          flip_bit[seg] = fault.bit;
        }
        break;
      }
      case FaultKind::kPermanent:
        c.activate_permanent(fault, c.spare_id_);
        break;
      case FaultKind::kProcessorCrash:
        ++c.rep_.processor_crashes;
        c.processor_crash_ = true;
        break;
    }
    if (c.processor_crash_) break;
  }
  if (c.handle_processor_crash()) return;

  // --- thread 1: version 3 replays the interval -----------------------
  VersionState retry = c.store_.latest()->state;
  for (std::uint64_t r = 1; r <= ic; ++r) {
    c.vset_.advance(retry, c.base_ + r, c.spare_id_);
  }
  if (retry_hit && !retry_crashed) {
    c.flip_distinct(retry, retry_word, retry_bit);
  }
  c.record(TraceKind::kRetryEnd, [] { return TraceText{"T1", ""}; });

  // --- thread 2: roll-forward ----------------------------------------
  // Candidate states at round ic: P = slot A, Q = slot B.
  VersionState roll_a;  // "T": advanced by version in slot A
  VersionState roll_b;  // "U": advanced by version in slot B
  VersionState roll_qa;
  VersionState roll_qb;
  int chosen_source_slot = -1;  // probabilistic/predict: P(0) or Q(1)

  if (rf > 0 && (scheme_prob || scheme_predict)) {
    // Start from the state of the *predicted fault-free* version.
    chosen_source_slot = guessed_faulty_slot == 0 ? 1 : 0;
    const VersionState& source =
        chosen_source_slot == 0 ? c.a_.state : c.b_.state;
    roll_a = source;
    roll_b = source;
    for (std::uint64_t r = 1; r <= rf; ++r) {
      c.vset_.advance(roll_a, c.base_ + ic + r, c.a_.version_id);
      if (scheme_prob) {
        c.vset_.advance(roll_b, c.base_ + ic + r, c.b_.version_id);
      }
    }
    if (segment_hit[0]) {
      c.flip_distinct(roll_a, flip_word[0], flip_bit[0]);
    }
    if (scheme_prob && segment_hit[1]) {
      c.flip_distinct(roll_b, flip_word[1], flip_bit[1]);
    }
  } else if (rf > 0 && scheme_det) {
    roll_a = c.a_.state;   // from P, advanced by version A
    roll_b = c.a_.state;   // from P, advanced by version B
    roll_qa = c.b_.state;  // from Q, advanced by version A
    roll_qb = c.b_.state;  // from Q, advanced by version B
    for (std::uint64_t r = 1; r <= rf; ++r) {
      c.vset_.advance(roll_a, c.base_ + ic + r, c.a_.version_id);
      c.vset_.advance(roll_b, c.base_ + ic + r, c.b_.version_id);
      c.vset_.advance(roll_qa, c.base_ + ic + r, c.a_.version_id);
      c.vset_.advance(roll_qb, c.base_ + ic + r, c.b_.version_id);
    }
    if (segment_hit[0]) {
      c.flip_distinct(roll_a, flip_word[0], flip_bit[0]);
    }
    if (segment_hit[1]) {
      c.flip_distinct(roll_b, flip_word[1], flip_bit[1]);
    }
    if (segment_hit[2]) {
      c.flip_distinct(roll_qa, flip_word[2], flip_bit[2]);
    }
    if (segment_hit[3]) {
      c.flip_distinct(roll_qb, flip_word[3], flip_bit[3]);
    }
  }

  // --- majority vote ---------------------------------------------------
  c.drain_background(c.clock_, c.clock_ + 2.0 * c.opt_.t_cmp);
  c.clock_ += 2.0 * c.opt_.t_cmp;
  c.rep_.comparisons += 2;
  if (c.handle_processor_crash()) return;

  const bool s_matches_a = !retry_crashed && !c.a_.crashed &&
                           states_match(retry, c.a_.state);
  const bool s_matches_b = !retry_crashed && !c.b_.crashed &&
                           states_match(retry, c.b_.state);

  if (s_matches_a == s_matches_b) {
    c.record(TraceKind::kMajorityVote,
             [] { return TraceText{"VDS", "no majority"}; });
    // The vote failed; the predictor gets no usable feedback.
    c.rollback();
    return;
  }

  const int faulty_slot = s_matches_a ? 1 : 0;
  EngineSlot& faulty = faulty_slot == 0 ? c.a_ : c.b_;
  c.record(TraceKind::kMajorityVote, [&] {
    return TraceText{"VDS",
                     numbered("V", faulty.version_id) + " faulty"};
  });

  // Predictor bookkeeping.
  if (consult_predictor) {
    ++c.rep_.predictions;
    const bool hit = guessed_faulty_slot == faulty_slot;
    if (hit) ++c.rep_.prediction_hits;
    predictor.feedback(evidence, faulty_slot == 0
                                     ? VersionGuess::kVersion1
                                     : VersionGuess::kVersion2);
  }

  // Version 3 replaces the faulty version.
  faulty.state = retry;
  faulty.crashed = false;
  std::swap(faulty.version_id, c.spare_id_);
  c.record(TraceKind::kStateCopy, [&] {
    return TraceText{"VDS", numbered("V", faulty.version_id) +
                                " joins duplex"};
  });

  // --- apply the roll-forward if it survived ---------------------------
  std::uint64_t progress = 0;
  if (rf > 0) {
    if (scheme_prob) {
      const bool chose_good = chosen_source_slot != faulty_slot;
      const bool clean = states_match(roll_a, roll_b);
      if (chose_good && clean) {
        c.a_.state = roll_a;
        c.b_.state = roll_a;
        progress = rf;
      }
    } else if (scheme_det) {
      const VersionState& t_state = faulty_slot == 0 ? roll_qa : roll_a;
      const VersionState& u_state = faulty_slot == 0 ? roll_qb : roll_b;
      if (states_match(t_state, u_state)) {
        c.a_.state = t_state;
        c.b_.state = t_state;
        progress = rf;
      }
    } else if (scheme_predict) {
      const bool chose_good = chosen_source_slot != faulty_slot;
      if (chose_good) {
        // No comparison protects this path: a fault that struck the
        // roll-forward is committed silently (the §4 hazard).
        c.a_.state = roll_a;
        c.b_.state = roll_a;
        progress = rf;
      }
    }
  }

  if (progress > 0) {
    ++c.rep_.roll_forwards_kept;
    c.rep_.roll_forward_rounds_gained += progress;
    c.record(TraceKind::kRollForwardEnd, [&] {
      return TraceText{"T2", numbered("kept ", progress) + " rounds"};
    });
  } else if (rf > 0) {
    ++c.rep_.roll_forwards_discarded;
    c.record(TraceKind::kRollForwardDiscarded,
             [] { return TraceText{"T2", ""}; });
  }

  c.i_ = ic + progress;
  c.consecutive_failures_ = 0;
  ++c.rep_.recoveries_ok;
  c.clear_pending();
  c.maybe_checkpoint();
}

// --- registry ----------------------------------------------------------

std::unique_ptr<RecoveryPolicy> make_recovery_policy(
    const VdsOptions& options, Platform platform) {
  if (options.scheme == RecoveryScheme::kRollback) {
    return std::make_unique<RollbackPolicy>();
  }
  if (platform == Platform::kConventional) {
    return std::make_unique<StopAndRetryPolicy>();
  }
  std::unique_ptr<SchemeSelector> selector;
  if (options.adaptive_scheme) {
    selector = std::make_unique<AdaptiveSchemeSelector>();
  } else {
    selector = std::make_unique<FixedSchemeSelector>(options.scheme);
  }
  return std::make_unique<SmtRecoveryPolicy>(std::move(selector));
}

}  // namespace vds::core
