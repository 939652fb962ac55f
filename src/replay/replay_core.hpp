#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace vds::replay {

/// One recorded round: the digest of the inputs and non-deterministic
/// events the primary consumed, and the outcome digest it produced.
/// Recording captures *enough* to make the round re-executable; the
/// abstract digests stand in for the RepTFD-style chunk logs (memory
/// access interleavings, interrupt points, input values).
struct RoundRecord {
  std::uint64_t index = 0;           ///< absolute round number
  std::uint64_t input_digest = 0;    ///< recorded inputs + nondet events
  std::uint64_t outcome_digest = 0;  ///< primary's post-round state digest

  [[nodiscard]] bool operator==(const RoundRecord&) const = default;
};

/// Deterministic round function shared by the recorder and the
/// replayer: the post-round state digest of executing round `index`
/// with `input_digest` from state `state`. Replay determinism is
/// exactly this sharing — given the same starting state and the same
/// recorded inputs, record and replay compute the same digest, so any
/// divergence is a fault manifestation, not nondeterminism.
[[nodiscard]] std::uint64_t round_outcome(std::uint64_t state,
                                          std::uint64_t index,
                                          std::uint64_t input_digest) noexcept;

/// Deterministic per-round input digest (round index + job seed).
[[nodiscard]] std::uint64_t round_input(std::uint64_t job_seed,
                                        std::uint64_t index) noexcept;

/// Append-only log of recorded rounds awaiting replay. The primary
/// appends as it records; the replayer takes whole windows off the
/// front. Rollback truncates everything not yet verified.
class RecordLog {
 public:
  /// Appends the next record; `record.index` must equal next_index().
  void append(const RoundRecord& record);

  /// Removes and returns up to `window` records from the front.
  [[nodiscard]] std::vector<RoundRecord> take_window(std::size_t window);

  /// Index the next appended record must carry.
  [[nodiscard]] std::uint64_t next_index() const noexcept {
    return next_index_;
  }

  /// Rewinds the expected index to `index` (after a rollback the
  /// primary re-records from the checkpointed round).
  void rewind_to(std::uint64_t index) noexcept {
    records_.clear();
    next_index_ = index;
  }

 private:
  std::deque<RoundRecord> records_;
  std::uint64_t next_index_ = 0;
};

/// Verdict of replaying one window: either every outcome digest
/// matched, or the index of the first diverging round. Compare
/// granularity is the window — a mismatch localizes the fault to the
/// window, and recovery rolls the whole window back.
struct WindowVerdict {
  bool match = true;
  std::uint64_t first_mismatch = 0;  ///< valid when !match
  std::size_t rounds = 0;            ///< rounds replayed
};

/// Replays recorded windows from a trusted state and compares outcome
/// digests round by round. The replayer's state advances only through
/// *verified* rounds, so it always holds the most recent state known
/// to match the recorded execution.
class Replayer {
 public:
  explicit Replayer(std::uint64_t initial_state) : state_(initial_state) {}

  /// Re-executes the window from the trusted state. `corrupt_xor` is
  /// xor-ed into the replayer's own recomputation (a fault striking
  /// the replaying thread context); 0 replays faithfully. On a full
  /// match the trusted state advances past the window; on a mismatch
  /// it stays at the last verified round.
  WindowVerdict replay(const std::vector<RoundRecord>& window,
                       std::uint64_t corrupt_xor = 0);

  /// Trusted (verified) state digest.
  [[nodiscard]] std::uint64_t state() const noexcept { return state_; }

  /// Restores the trusted state from a checkpoint.
  void reset(std::uint64_t state) noexcept { state_ = state; }

 private:
  std::uint64_t state_;
};

}  // namespace vds::replay
