#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/json_writer.hpp"

namespace vds::core {
struct RunReport;
struct CampaignSummary;
}  // namespace vds::core

namespace vds::runtime {

/// Serializes a full engine run report (schema `vds.run_report.v1`
/// object body). Shared between the CLIs.
void write_json(JsonWriter& json, const core::RunReport& report);

/// Serializes outcome counts of a campaign summary.
void write_json(JsonWriter& json, const core::CampaignSummary& summary);

/// What happened to a cell-range lease in a fabric assignment log.
/// The numeric values are the on-disk encoding — append only.
enum class LeaseEvent : std::uint8_t {
  kGranted = 0,    ///< lease handed to a worker (logged before the send)
  kCompleted = 1,  ///< result committed (digest + cell count recorded)
  kExpired = 2,    ///< worker died or went silent; lease reopened
};

/// Canonical event names ("granted", "completed", "expired") — the
/// inspect/audit vocabulary.
[[nodiscard]] std::string_view to_string(LeaseEvent event) noexcept;

/// One journaled Monte Carlo cell: everything the aggregation needs,
/// so a resumed campaign reproduces the merged summary bit for bit.
///
/// With `stop == true` the record is a per-stratum *stop record*
/// instead of a cell: `index` is the stratum index, `stop_after` the
/// replica count the stratum kept when its confidence target was met,
/// and `achieved_ci` the relative half-width at that point. Stop
/// records pin adaptive-sampling stopping points across `--resume`
/// and `merge_journals`, so a resumed or merged campaign reproduces
/// the original run's digest instead of re-deciding with different
/// information.
///
/// With `lease == true` the record is a fabric assignment-log event:
/// `index` is the lease id, `lease_lo`/`lease_hi` its half-open cell
/// range, `lease_attempt` the grant generation, and — for completed
/// events — `lease_digest`/`lease_cells` the committed result. The
/// coordinator replays these on `vds_fabric --resume` to skip
/// committed leases and re-issue open ones.
struct JournalRecord {
  std::uint64_t index = 0;           ///< cell index in the canonical grid order
  int outcome = 0;                   ///< InjectionOutcome as integer
  double detection_latency = -1.0;   ///< -1 when never detected
  double recovery_time = 0.0;
  double total_time = 0.0;
  std::uint64_t rounds_committed = 0;
  bool stop = false;                 ///< stratum stop record, not a cell
  std::uint64_t stop_after = 0;      ///< replicas kept (stop records only)
  double achieved_ci = 0.0;          ///< relative CI there (stop records only)
  bool lease = false;                ///< fabric assignment-log event
  LeaseEvent lease_event = LeaseEvent::kGranted;
  std::uint64_t lease_attempt = 0;   ///< grant generation, 1-based
  std::uint64_t lease_lo = 0;        ///< half-open cell range [lo, hi)
  std::uint64_t lease_hi = 0;
  std::uint64_t lease_digest = 0;    ///< committed digest (completed only)
  std::uint64_t lease_cells = 0;     ///< cells executed (completed only)

  [[nodiscard]] bool operator==(const JournalRecord&) const = default;
};

/// The one journal encoding, v3 binary. Kept only because the
/// benchmark probes (`perfbench/src/probes.cpp`) name it when they open
/// a journal; `Journal` takes it and ignores it. Goes with the next
/// change to the benchmark.
enum class JournalFormat {
  kV3Binary = 3,
};

/// What `Journal::load` recovered from disk. `corrupt` counts every
/// record that had to be discarded — checksum mismatch (bit flip),
/// undecodable payload, or a torn tail — so a resumed campaign can
/// report how much work the substrate lost. A contiguous run of
/// damaged bytes counts once (one corruption episode), however many
/// bytes it spans.
struct JournalLoad {
  std::vector<JournalRecord> records;  ///< cell records, file order
  std::vector<JournalRecord> stops;    ///< stratum stop records, file order
  std::vector<JournalRecord> leases;   ///< lease events, file order
  std::uint64_t corrupt = 0;
  int version = 0;  ///< header version of the file (3; 0 when absent)
  std::uint64_t fingerprint = 0;  ///< from the header (0 when absent)
  bool has_header = false;        ///< false for a missing/empty file
};

class Chaos;

/// Append-only progress journal for resumable campaigns.
///
/// One encoding, v3 binary: a magic + version + fingerprint header,
/// then length-prefixed records each carrying a CRC32C of their
/// payload (exact layout in docs/SCHEMAS.md §6). A bit flip or a torn
/// write anywhere in the file is detected on load and only the damaged
/// records are lost (their cells re-execute); the scan then
/// resynchronizes and keeps every later intact record. The header
/// carries a fingerprint of the campaign configuration; `load()`
/// refuses a journal written for a different configuration, and every
/// entry point refuses a file without the v3 magic (such as a text
/// journal from an older build). A torn final record (the process was
/// killed mid-write) is discarded and counted, so a crashed campaign
/// always resumes from its last *complete* record.
class Journal {
 public:
  /// Parses `path`. Returns the complete records found plus the count
  /// of corrupt/torn ones; an absent file yields an empty result.
  /// Throws std::runtime_error (with path, expected vs. found
  /// fingerprint, and a resume hint) when the file exists but was
  /// written for a different configuration, and on I/O errors other
  /// than the file not existing.
  static JournalLoad load(const std::string& path,
                          std::uint64_t fingerprint);

  /// `load` without the fingerprint gate: parses a journal and reports
  /// what is in it (records, corruption count, version, stored
  /// fingerprint). The `vds_journal` tool is built on this. Still
  /// throws on open errors and on a file without the v3 header.
  static JournalLoad inspect(const std::string& path);

  /// Opens `path` for appending, writing the header first if the file
  /// is new/empty. Throws std::runtime_error on I/O error (including a
  /// seek failure on a non-seekable path and a header write that
  /// fails, e.g. on a full disk), and — before writing anything — when
  /// a non-empty file does not start with the v3 magic.
  Journal(const std::string& path, std::uint64_t fingerprint,
          JournalFormat = JournalFormat::kV3Binary);

  /// Takes ownership of an already-open stream: flushes it once,
  /// adopts its descriptor (switched to O_APPEND) and closes the
  /// stream. No header is written — the caller prepared the stream.
  /// `name` labels error messages. Exists for tests that need a
  /// failing stream (e.g. /dev/full).
  Journal(std::FILE* stream, std::string name);

  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Most records one `write(2)` carries: a campaign dispatch block.
  static constexpr std::size_t kMaxBlock = 64;

  /// Appends `records` with one write(2) on the O_APPEND descriptor per
  /// `kMaxBlock` records, so they are in the kernel (not fsync'ed)
  /// before `append` returns. A campaign hands over a dispatch block's
  /// records when the block finishes; a SIGKILL therefore loses at most
  /// the unfinished block of each worker, whose cells `--resume`
  /// re-executes. Thread-safe without a user-space lock: the records
  /// are encoded on the caller's stack, and the kernel places each
  /// O_APPEND write to a regular file whole at the end of the file, so
  /// concurrent blocks never interleave. The only way part of a block
  /// could land is a short write (disk full, file-size limit, …); it is
  /// detected, and like a failed write it throws std::runtime_error —
  /// silently dropping records would let the campaign report success
  /// while the resume data is incomplete. After a failure the journal
  /// is poisoned: every further append throws without writing.
  void append(std::span<const JournalRecord> records);

  /// `append` of a single record (one write(2)).
  void append(const JournalRecord& record) { append({&record, 1}); }

  /// Arms write-side chaos sites (`journal.corrupt` flips a bit in
  /// the record body, `journal.torn` truncates the record mid-write;
  /// both report success to the caller — the *reader* must catch
  /// them). `chaos` must outlive the journal; nullptr disarms.
  void arm_chaos(const Chaos* chaos) noexcept { chaos_ = chaos; }

 private:
  std::string path_;
  int fd_ = -1;
  std::atomic<bool> failed_{false};
  const Chaos* chaos_ = nullptr;
};

/// What `merge_journals` did. `duplicates` counts records coalesced
/// because two shards journaled the identical result for the same
/// cell (overlapping shard ranges — harmless by determinism).
struct JournalMergeStats {
  std::uint64_t inputs = 0;
  std::uint64_t records_in = 0;   ///< intact records across all inputs
  std::uint64_t records_out = 0;  ///< unique cells written
  std::uint64_t duplicates = 0;   ///< identical-content duplicates dropped
  std::uint64_t corrupt = 0;      ///< damaged records skipped, all inputs
  std::uint64_t fingerprint = 0;  ///< shared campaign fingerprint
};

/// Merges per-shard journals into one resumable journal at
/// `out_path` (overwritten), records sorted by cell index. Every input
/// must be a readable journal with a header; all fingerprints must
/// agree (the merged file carries that fingerprint). Duplicate cells
/// with bitwise-identical payloads are coalesced; a duplicate cell
/// whose payload *differs* between shards means the shards disagree
/// about a result and is a hard error, as is `out_path` naming one of
/// the inputs. Lease events (an assignment log among the inputs) are
/// copied through in input order — they are an event history, so
/// duplicates are meaningful and never coalesced. The output is
/// written `Journal::kMaxBlock` records per write(2); its bytes are
/// those of appending the records one at a time. Throws
/// std::runtime_error on all of the above; corrupt records in the
/// inputs are skipped and counted, same as resume.
JournalMergeStats merge_journals(const std::vector<std::string>& inputs,
                                 const std::string& out_path);

/// CRC32C (Castagnoli), the per-record journal checksum.
[[nodiscard]] std::uint32_t crc32c(const void* data, std::size_t bytes,
                                   std::uint32_t crc = 0) noexcept;

/// CRC32C of a string literal, without its terminating NUL. Without
/// this overload, crc32c("literal", prior_crc) would silently pick the
/// (const void*, size_t) one and read `prior_crc` bytes.
template <std::size_t N>
[[nodiscard]] std::uint32_t crc32c(const char (&text)[N],
                                   std::uint32_t crc = 0) noexcept {
  return crc32c(text, std::string_view(text).size(), crc);
}

/// FNV-1a, the journal/config fingerprint hash.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t bytes,
                                  std::uint64_t seed = 0xcbf29ce484222325ull) noexcept;

[[nodiscard]] std::uint64_t fnv1a(std::string_view text,
                                  std::uint64_t seed = 0xcbf29ce484222325ull) noexcept;

}  // namespace vds::runtime
