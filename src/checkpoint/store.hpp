#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "checkpoint/state.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace vds::checkpoint {

/// A checkpoint: the agreed version state at the end of a round, plus a
/// CRC so that stable-storage corruption is detectable on restore.
struct Checkpoint {
  std::uint64_t round = 0;       ///< global round index the state is valid at
  VersionState state;
  std::uint32_t crc = 0;
  /// The clean tag a CRC-only save stored instead of computing `crc`
  /// (which is then 0): the CRC is that of the tag's golden words.
  /// Empty once the CRC is computed. See CheckpointStore::save().
  std::optional<VersionState> deferred_crc;
  vds::sim::SimTime saved_at = 0.0;
  /// SEC-DED check bytes, one per state word, when the store runs with
  /// EccMode::kSecded. Single-bit storage rot then becomes correctable
  /// instead of merely detectable.
  std::vector<std::uint8_t> ecc;
};

/// How the store protects checkpoints against stable-storage rot.
enum class EccMode : std::uint8_t {
  kCrcOnly,  ///< detect corruption via CRC-32 (restore fails)
  kSecded,   ///< Hamming(72,64) per word: correct single-bit errors,
             ///< detect double-bit errors, CRC as the final arbiter
};

/// Outcome of a protected restore.
enum class RestoreStatus : std::uint8_t {
  kClean,          ///< stored data intact
  kCorrected,      ///< rot found and repaired by SEC-DED
  kUnrecoverable,  ///< corruption beyond the code's reach
};

/// Latency model for stable storage. The paper notes stable-storage
/// access is "relatively expensive", motivating long checkpoint
/// intervals versus short test intervals [14]; benches E12 sweep these.
struct StoreLatency {
  double write = 0.0;  ///< time to persist one checkpoint
  double read = 0.0;   ///< time to restore one checkpoint
};

/// In-memory model of stable checkpoint storage with bounded history.
class CheckpointStore {
 public:
  /// keep_last == 0 keeps the full history.
  explicit CheckpointStore(StoreLatency latency = {},
                           std::size_t keep_last = 2,
                           EccMode ecc = EccMode::kCrcOnly);

  /// Persists a checkpoint; returns the modeled write latency. A clean
  /// state under EccMode::kCrcOnly is stored as its tag and its CRC is
  /// deferred: corrupt_stored_bit(), verify() and restore_latest()
  /// compute it from the golden words before they damage or judge the
  /// state, so every integrity outcome is that of the eager CRC.
  double save(std::uint64_t round, const VersionState& state,
              vds::sim::SimTime now);

  /// Most recent checkpoint, if any. Restoration cost is latency().read;
  /// the caller accounts for it in simulated time.
  [[nodiscard]] std::optional<Checkpoint> latest() const;

  /// Checkpoint for the greatest round <= `round`, if any.
  [[nodiscard]] std::optional<Checkpoint> latest_at_or_before(
      std::uint64_t round) const;

  /// True when the stored CRC matches the state (detects storage rot).
  [[nodiscard]] static bool verify(const Checkpoint& checkpoint) noexcept;

  /// Flips one bit of a stored checkpoint's state (storage-rot
  /// injection for tests and fault campaigns). `which` selects the
  /// checkpoint from the newest (0 = latest). Returns false when no
  /// such checkpoint exists.
  bool corrupt_stored_bit(std::size_t which, std::size_t word,
                          unsigned bit);

  /// Restores the most recent checkpoint with ECC scrubbing: under
  /// EccMode::kSecded single-bit rot is corrected in place; the CRC
  /// then arbitrates. Returns kUnrecoverable when the state cannot be
  /// trusted (the caller must fail safe or fall further back).
  [[nodiscard]] RestoreStatus restore_latest(Checkpoint& out);

  [[nodiscard]] EccMode ecc_mode() const noexcept { return ecc_; }
  [[nodiscard]] std::uint64_t corrections() const noexcept {
    return corrections_;
  }

  [[nodiscard]] const StoreLatency& latency() const noexcept {
    return latency_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return history_.size(); }
  [[nodiscard]] std::uint64_t saves() const noexcept { return saves_; }
  [[nodiscard]] const vds::sim::Accumulator& write_time() const noexcept {
    return write_time_;
  }

  void clear();

 private:
  /// Computes a deferred CRC into `crc` and drops the saved tag.
  static void resolve_crc(Checkpoint& checkpoint);

  StoreLatency latency_;
  std::size_t keep_last_;
  EccMode ecc_;
  std::deque<Checkpoint> history_;
  std::uint64_t saves_ = 0;
  std::uint64_t corrections_ = 0;
  vds::sim::Accumulator write_time_;
};

}  // namespace vds::checkpoint
