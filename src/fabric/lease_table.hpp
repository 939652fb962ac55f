#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/journal.hpp"

namespace vds::fabric {

/// The coordinator's lease state machine plus its durable assignment
/// log — the crash-exact heart of the fabric. Pure with respect to
/// time (every transition takes the clock as a parameter) and free of
/// sockets, so the whole lifecycle is unit-testable; the coordinator
/// serializes access with one mutex.
///
/// The campaign's cell range [0, total_cells) is cut into fixed-size
/// leases. Each lease walks open -> granted -> committed; a granted
/// lease whose worker misses heartbeats (or disconnects, or reports
/// failure) falls back to open with capped-exponential backoff and a
/// bumped attempt counter. Every transition is appended to a v3
/// journal (`runtime::LeaseEvent` records, CRC32C-framed) *before*
/// the corresponding message leaves the process — write-ahead, so a
/// coordinator SIGKILL between grant and send at worst re-issues a
/// lease, never forgets one. Replaying the log on `--resume`
/// reconstructs exactly the committed set: completed leases are never
/// re-run, open/granted ones are re-issued.
///
/// Idempotent completion: a commit for an already-committed lease is
/// checked against the committed digest — equal means a late
/// duplicate (coalesced, counted, harmless by determinism), different
/// means two workers disagreed about the same cells (a hard error the
/// coordinator must surface, never average away).
class LeaseTable {
 public:
  using Clock = std::chrono::steady_clock;

  struct Options {
    std::uint64_t total_cells = 0;  ///< campaign cells, [0, total)
    std::uint64_t lease_cells = 0;  ///< cells per lease (last may be short)
    std::uint64_t fingerprint = 0;  ///< campaign fingerprint
    std::string log_path;           ///< assignment log (v3 journal)
    std::string workdir;            ///< per-attempt worker journals
    bool resume = false;            ///< replay an existing log first
    std::chrono::milliseconds expiry{5000};      ///< heartbeat silence limit
    std::chrono::milliseconds backoff_base{100};
    std::chrono::milliseconds backoff_cap{5000};
  };

  /// What `commit` did with a result.
  enum class CommitOutcome {
    kCommitted,  ///< first completion; digest recorded
    kCoalesced,  ///< duplicate with the committed digest; dropped
    kConflict,   ///< duplicate with a DIFFERENT digest; data error
  };

  /// One grant handed to a worker.
  struct Grant {
    std::uint64_t lease = 0;
    std::uint64_t attempt = 1;
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    std::string journal;  ///< per-attempt shard journal path
  };

  /// Assignment-log audit counters (the no-lease-lost /
  /// no-double-count evidence).
  struct Audit {
    std::uint64_t leases = 0;     ///< total leases in the campaign
    std::uint64_t committed = 0;  ///< leases in the committed state
    std::uint64_t granted = 0;    ///< grant events logged (incl. replay)
    std::uint64_t expired = 0;    ///< expiry/failure events logged
    std::uint64_t coalesced = 0;  ///< late duplicates dropped
    std::uint64_t replayed = 0;   ///< commits recovered from the log
  };

  /// Cuts the ranges, replays `log_path` when resuming (throws
  /// std::runtime_error on fingerprint mismatch or a log that
  /// disagrees with the configured ranges), then opens the log for
  /// append.
  explicit LeaseTable(Options options);

  LeaseTable(const LeaseTable&) = delete;
  LeaseTable& operator=(const LeaseTable&) = delete;

  /// Grants the next open lease whose backoff has elapsed, logging
  /// the grant first. nullopt when nothing is ready (all granted or
  /// committed, or every open lease still backing off).
  [[nodiscard]] std::optional<Grant> next_grant(Clock::time_point now);

  /// Commits a worker result. Expired-but-uncommitted leases accept
  /// the commit too (a late result is still bit-exact by determinism
  /// — the race of lease expiry against completion resolves in favor
  /// of the work). kConflict commits nothing; the caller decides how
  /// loudly to fail.
  [[nodiscard]] CommitOutcome commit(std::uint64_t lease,
                                     std::uint64_t attempt,
                                     std::uint64_t digest,
                                     std::uint64_t cells);

  /// Records worker liveness for a granted lease.
  void heartbeat(std::uint64_t lease, Clock::time_point now);

  /// Expires every granted lease whose last heartbeat is older than
  /// `expiry`; each reopens with capped-exponential backoff. Returns
  /// the lease ids expired this sweep.
  std::vector<std::uint64_t> expire_stale(Clock::time_point now);

  /// Worker-reported failure or disconnect while holding `lease`:
  /// reopen it (with backoff) unless already committed.
  void release(std::uint64_t lease, Clock::time_point now);

  [[nodiscard]] bool all_committed() const noexcept;

  /// When the earliest open lease's backoff ends (it may already have
  /// ended); nullopt when no lease is open. The coordinator's idle
  /// connections sleep until then at most.
  [[nodiscard]] std::optional<Clock::time_point> next_open_at() const;

  /// Shard journal paths of every committed lease (its committed
  /// attempt), lease order — the merge set for the final digest.
  [[nodiscard]] std::vector<std::string> committed_journals() const;

  [[nodiscard]] Audit audit() const noexcept { return audit_; }

  [[nodiscard]] std::uint64_t lease_count() const noexcept;

  [[nodiscard]] std::uint64_t committed_count() const noexcept {
    return audit_.committed;
  }

  /// The per-attempt shard journal path convention — deterministic,
  /// so resume can reconstruct any attempt's path from the log alone.
  [[nodiscard]] std::string journal_path(std::uint64_t lease,
                                         std::uint64_t attempt) const;

 private:
  enum class State { kOpen, kGranted, kCommitted };

  struct Entry {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    State state = State::kOpen;
    std::uint64_t attempt = 0;  ///< last granted attempt (0 = never)
    Clock::time_point last_heartbeat{};
    Clock::time_point backoff_until{};
    std::uint64_t committed_attempt = 0;
    std::uint64_t committed_digest = 0;
    std::uint64_t committed_cells = 0;
  };

  void replay(const runtime::JournalLoad& loaded);
  void log_event(runtime::LeaseEvent event, std::uint64_t lease,
                 const Entry& entry, std::uint64_t digest,
                 std::uint64_t cells);
  void reopen(std::uint64_t lease, Clock::time_point now);

  Options options_;
  std::vector<Entry> entries_;
  std::unique_ptr<runtime::Journal> log_;
  Audit audit_;
};

}  // namespace vds::fabric
