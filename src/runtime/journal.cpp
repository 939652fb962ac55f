#include "runtime/journal.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

#include "core/campaign.hpp"
#include "core/report.hpp"
#include "runtime/chaos.hpp"
#include "runtime/metrics.hpp"

namespace vds::runtime {

// --- shared report/summary serialization -----------------------------

void write_json(JsonWriter& json, const core::RunReport& report) {
  json.begin_object();
  json.field("completed", report.completed);
  json.field("failed_safe", report.failed_safe);
  json.field("silent_corruption", report.silent_corruption);
  json.field("total_time", report.total_time);
  json.field("rounds_committed", report.rounds_committed);
  json.field("faults_seen", report.faults_seen);
  json.field("transient_faults", report.transient_faults);
  json.field("crash_faults", report.crash_faults);
  json.field("permanent_faults", report.permanent_faults);
  json.field("processor_crashes", report.processor_crashes);
  json.field("detections", report.detections);
  json.field("recoveries_ok", report.recoveries_ok);
  json.field("rollbacks", report.rollbacks);
  json.field("comparisons", report.comparisons);
  json.field("checkpoints", report.checkpoints);
  json.field("roll_forwards_kept", report.roll_forwards_kept);
  json.field("roll_forwards_discarded", report.roll_forwards_discarded);
  json.field("roll_forward_rounds_gained", report.roll_forward_rounds_gained);
  json.field("predictions", report.predictions);
  json.field("prediction_hits", report.prediction_hits);
  json.field("predictor_accuracy", report.predictor_accuracy());
  json.field("throughput", report.throughput());
  json.key("detection_latency").begin_object();
  json.field("count", static_cast<std::uint64_t>(report.detection_latency.count()));
  json.field("mean", report.detection_latency.mean());
  json.field("stddev", report.detection_latency.stddev());
  json.end_object();
  json.key("recovery_time").begin_object();
  json.field("count", static_cast<std::uint64_t>(report.recovery_time.count()));
  json.field("mean", report.recovery_time.mean());
  json.field("stddev", report.recovery_time.stddev());
  json.end_object();
  json.end_object();
}

void write_json(JsonWriter& json, const core::CampaignSummary& summary) {
  json.begin_object();
  json.field("injections", summary.injections);
  json.field("safety", summary.safety());
  json.key("by_outcome").begin_object();
  for (std::size_t k = 0; k < summary.by_outcome.size(); ++k) {
    json.field(core::to_string(static_cast<core::InjectionOutcome>(k)),
               summary.by_outcome[k]);
  }
  json.end_object();
  json.end_object();
}

std::string_view to_string(LeaseEvent event) noexcept {
  switch (event) {
    case LeaseEvent::kGranted: return "granted";
    case LeaseEvent::kCompleted: return "completed";
    case LeaseEvent::kExpired: return "expired";
  }
  return "granted";
}

// --- fingerprint hash ------------------------------------------------

std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t seed) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t k = 0; k < bytes; ++k) {
    h ^= p[k];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a(std::string_view text, std::uint64_t seed) noexcept {
  return fnv1a(text.data(), text.size(), seed);
}

// --- CRC32C ----------------------------------------------------------

namespace {

/// Reflected Castagnoli polynomial, table built on first use.
const std::uint32_t* crc32c_table() noexcept {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t n = 0; n < 256; ++n) {
      std::uint32_t c = n;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0x82f63b78u ^ (c >> 1) : c >> 1;
      }
      t[n] = c;
    }
    return t;
  }();
  return table.data();
}

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t bytes,
                     std::uint32_t crc) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  const std::uint32_t* table = crc32c_table();
  crc = ~crc;
  for (std::size_t k = 0; k < bytes; ++k) {
    crc = table[(crc ^ p[k]) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

// --- Journal ---------------------------------------------------------

namespace {

// v3 binary layout (docs/SCHEMAS.md section 6). Header: 8-byte magic,
// u32 LE version, u64 LE fingerprint, '\n'. Record: 0xA5 marker, u8
// payload length, payload, u32 LE CRC32C of the payload, '\n'. The
// trailing newline is framing only (it keeps `wc -l` and text tools
// honest about progress) and is not covered by the CRC.
constexpr unsigned char kV3Magic[8] = {'v', 'd', 's', 'j', 'r', 'n', 'l', '\0'};
constexpr std::size_t kV3HeaderSize = 8 + 4 + 8 + 1;
constexpr unsigned char kV3Marker = 0xA5;
// Cell payload = flags + varint cell + varint outcome + optional f64
// latency + optional f64 recovery + f64 total + varint rounds.
// Stop payload (flags == kV3FlagStop) = flags + varint stratum +
// varint stop_after + f64 achieved_ci.
// Lease payload (flags == kV3FlagLease) = flags + u8 event + varint
// lease id + varint attempt + varint lo + varint hi, plus f64-width
// digest bits + varint cells for completed events; its 6-byte minimum
// sets the framing floor, the completed form's 60-byte worst case the
// ceiling.
constexpr std::size_t kV3MinPayload = 1 + 1 + 1 + 1 + 1 + 1;
constexpr std::size_t kV3MaxPayload = 1 + 1 + 10 + 10 + 10 + 10 + 8 + 10;
constexpr unsigned char kV3FlagLatency = 0x01;
constexpr unsigned char kV3FlagRecovery = 0x02;
constexpr unsigned char kV3FlagStop = 0x04;
constexpr unsigned char kV3FlagLease = 0x08;

void put_le32(unsigned char* out, std::uint32_t v) noexcept {
  out[0] = static_cast<unsigned char>(v);
  out[1] = static_cast<unsigned char>(v >> 8);
  out[2] = static_cast<unsigned char>(v >> 16);
  out[3] = static_cast<unsigned char>(v >> 24);
}

void put_le64(unsigned char* out, std::uint64_t v) noexcept {
  put_le32(out, static_cast<std::uint32_t>(v));
  put_le32(out + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_le32(const unsigned char* p) noexcept {
  return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
         std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24;
}

std::uint64_t get_le64(const unsigned char* p) noexcept {
  return std::uint64_t(get_le32(p)) | std::uint64_t(get_le32(p + 4)) << 32;
}

std::uint64_t f64_bits(double x) noexcept {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

double f64_from_bits(std::uint64_t bits) noexcept {
  double x;
  std::memcpy(&x, &bits, sizeof x);
  return x;
}

std::size_t put_varint(unsigned char* out, std::uint64_t v) noexcept {
  std::size_t n = 0;
  while (v >= 0x80) {
    out[n++] = static_cast<unsigned char>(v) | 0x80;
    v >>= 7;
  }
  out[n++] = static_cast<unsigned char>(v);
  return n;
}

bool get_varint(const unsigned char* p, std::size_t n, std::size_t& pos,
                std::uint64_t& value) noexcept {
  value = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (pos >= n) return false;
    const unsigned char byte = p[pos++];
    // The 10th byte can only carry bit 63; anything more is an
    // overlong/overflowing encoding the writer never produces.
    if (shift == 63 && (byte & 0xfe) != 0) return false;
    value |= std::uint64_t(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return true;
  }
  return false;
}

/// Doubles whose bit pattern equals the field's default (-1.0 for the
/// latency, +0.0 for the recovery time) are elided via the flags
/// byte; presence is decided on *bit patterns*, not value compares,
/// so -0.0 round-trips bitwise. ~40% of cells in a typical campaign
/// are no_effect and carry both defaults.
std::size_t encode_v3_payload(const JournalRecord& record,
                              unsigned char* out) noexcept {
  if (record.lease) {
    std::size_t n = 0;
    out[n++] = kV3FlagLease;
    out[n++] = static_cast<unsigned char>(record.lease_event);
    n += put_varint(out + n, record.index);
    n += put_varint(out + n, record.lease_attempt);
    n += put_varint(out + n, record.lease_lo);
    n += put_varint(out + n, record.lease_hi);
    if (record.lease_event == LeaseEvent::kCompleted) {
      put_le64(out + n, record.lease_digest);
      n += 8;
      n += put_varint(out + n, record.lease_cells);
    }
    return n;
  }
  if (record.stop) {
    std::size_t n = 0;
    out[n++] = kV3FlagStop;
    n += put_varint(out + n, record.index);
    n += put_varint(out + n, record.stop_after);
    put_le64(out + n, f64_bits(record.achieved_ci));
    n += 8;
    return n;
  }
  const std::uint64_t latency_bits = f64_bits(record.detection_latency);
  const std::uint64_t recovery_bits = f64_bits(record.recovery_time);
  const bool has_latency = latency_bits != f64_bits(-1.0);
  const bool has_recovery = recovery_bits != f64_bits(0.0);
  std::size_t n = 0;
  out[n++] = (has_latency ? kV3FlagLatency : 0) |
             (has_recovery ? kV3FlagRecovery : 0);
  n += put_varint(out + n, record.index);
  n += put_varint(out + n,
                  static_cast<std::uint32_t>(record.outcome));
  if (has_latency) {
    put_le64(out + n, latency_bits);
    n += 8;
  }
  if (has_recovery) {
    put_le64(out + n, recovery_bits);
    n += 8;
  }
  put_le64(out + n, f64_bits(record.total_time));
  n += 8;
  n += put_varint(out + n, record.rounds_committed);
  return n;
}

bool decode_v3_payload(const unsigned char* p, std::size_t n,
                       JournalRecord& record) noexcept {
  std::size_t pos = 0;
  if (n == 0) return false;
  const unsigned char flags = p[pos++];
  if (flags == kV3FlagLease) {
    record.lease = true;
    if (pos >= n || p[pos] > 2) return false;
    record.lease_event = static_cast<LeaseEvent>(p[pos++]);
    if (!get_varint(p, n, pos, record.index)) return false;
    if (!get_varint(p, n, pos, record.lease_attempt)) return false;
    if (!get_varint(p, n, pos, record.lease_lo)) return false;
    if (!get_varint(p, n, pos, record.lease_hi)) return false;
    if (record.lease_event == LeaseEvent::kCompleted) {
      if (pos + 8 > n) return false;
      record.lease_digest = get_le64(p + pos);
      pos += 8;
      if (!get_varint(p, n, pos, record.lease_cells)) return false;
    }
    return pos == n;
  }
  if (flags == kV3FlagStop) {
    record.stop = true;
    if (!get_varint(p, n, pos, record.index)) return false;
    if (!get_varint(p, n, pos, record.stop_after)) return false;
    if (pos + 8 > n) return false;
    record.achieved_ci = f64_from_bits(get_le64(p + pos));
    pos += 8;
    return pos == n;
  }
  if ((flags & ~(kV3FlagLatency | kV3FlagRecovery)) != 0) return false;
  if (!get_varint(p, n, pos, record.index)) return false;
  std::uint64_t outcome = 0;
  if (!get_varint(p, n, pos, outcome) || outcome > 0xffffffffull) {
    return false;
  }
  record.outcome =
      static_cast<std::int32_t>(static_cast<std::uint32_t>(outcome));
  if ((flags & kV3FlagLatency) != 0) {
    if (pos + 8 > n) return false;
    record.detection_latency = f64_from_bits(get_le64(p + pos));
    pos += 8;
  } else {
    record.detection_latency = -1.0;
  }
  if ((flags & kV3FlagRecovery) != 0) {
    if (pos + 8 > n) return false;
    record.recovery_time = f64_from_bits(get_le64(p + pos));
    pos += 8;
  } else {
    record.recovery_time = 0.0;
  }
  if (pos + 8 > n) return false;
  record.total_time = f64_from_bits(get_le64(p + pos));
  pos += 8;
  if (!get_varint(p, n, pos, record.rounds_committed)) return false;
  return pos == n;  // trailing bytes would hide corruption
}

constexpr std::size_t kMinV3Line = 2 + kV3MinPayload + 4 + 1;
constexpr std::size_t kMaxV3Line = 2 + kV3MaxPayload + 4 + 1;

/// Frames one record into `line` (room for kMaxV3Line bytes) and
/// returns its length. Chaos write-side faults must look like a
/// *successful* append to the campaign: they model silent substrate
/// corruption that only the checksummed reader can catch on --resume.
std::size_t encode_v3_line(const JournalRecord& record, const Chaos* chaos,
                           unsigned char* line) noexcept {
  std::size_t line_len = 0;
  line[line_len++] = kV3Marker;
  const std::size_t payload_len = encode_v3_payload(record, line + 2);
  line[line_len++] = static_cast<unsigned char>(payload_len);
  line_len += payload_len;
  put_le32(line + line_len, crc32c(line + 2, payload_len));
  line_len += 4;
  line[line_len++] = '\n';
  if (chaos != nullptr) {
    if (chaos->fires(kChaosJournalTorn, record.index)) {
      line_len /= 2;  // the kill instant: half a record, no terminator
    } else if (chaos->fires(kChaosJournalCorrupt, record.index)) {
      line[line_len / 3] ^= 0x04;  // one flipped bit inside the body
    }
  }
  return line_len;
}

std::string hex16(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  return buf;
}

constexpr const char* kNotV3 =
    "unrecognized header (not a v3 vds-mc journal: a text journal from "
    "an older build, a newer format, or another file); delete or move "
    "the file, or pick another path";

[[noreturn]] void throw_unrecognized(const std::string& path) {
  throw std::runtime_error("journal '" + path + "': " + kNotV3);
}

/// Reads the whole file; false (and no throw) only for ENOENT.
bool read_file(const std::string& path, std::string& out) {
  errno = 0;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (errno == ENOENT) return false;  // nothing journaled yet
    throw std::runtime_error("journal '" + path + "': cannot open: " +
                             std::strerror(errno));
  }
  char buffer[1 << 16];
  std::size_t got;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    out.append(buffer, got);
  }
  if (std::ferror(file) != 0) {
    const int error = errno;
    std::fclose(file);
    throw std::runtime_error("journal '" + path + "': cannot read: " +
                             std::strerror(error));
  }
  std::fclose(file);
  return true;
}

/// v3 binary scan with resynchronization. Two damage classes:
///
/// * A record whose *framing* is intact (marker byte, plausible
///   length, terminating '\n' where the length says) but whose CRC or
///   payload decode fails — a bit flip — is counted individually and
///   consumed whole; the scan continues at the next record.
/// * Structurally damaged bytes (torn record, truncated tail, garbage
///   splice, wrong marker) count as ONE corruption episode however
///   many bytes they span, and the scan hunts byte-by-byte for the
///   next 0xA5 marker that frames. A marker byte inside a damaged
///   span can masquerade as a record start, but the CRC makes a false
///   accept a 2^-32 event.
void parse_v3_journal(const std::string& path, std::string_view data,
                      JournalLoad& result) {
  if (data.size() < kV3HeaderSize ||
      std::memcmp(data.data(), kV3Magic, sizeof kV3Magic) != 0 ||
      data[kV3HeaderSize - 1] != '\n' ||
      get_le32(reinterpret_cast<const unsigned char*>(data.data()) + 8) != 3) {
    throw_unrecognized(path);
  }
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  result.version = 3;
  result.fingerprint = get_le64(bytes + 12);
  result.has_header = true;

  std::size_t pos = kV3HeaderSize;
  // At most one record per kMinV3Line bytes. Reserving that up front
  // spares the regrowth copies of a large journal; the pages no record
  // reaches are never touched.
  result.records.reserve((data.size() - pos) / kMinV3Line);
  bool resync = false;
  const auto next_marker = [&](std::size_t from) {
    const std::size_t at = data.find(static_cast<char>(kV3Marker), from);
    return at == std::string_view::npos ? data.size() : at;
  };
  while (pos < data.size()) {
    std::size_t total = 0;
    if (bytes[pos] == kV3Marker && pos + 2 <= data.size()) {
      const std::size_t len = bytes[pos + 1];
      total = 2 + len + 4 + 1;
      if (len < kV3MinPayload || len > kV3MaxPayload ||
          pos + total > data.size() || bytes[pos + total - 1] != '\n') {
        total = 0;  // framing broken: structural damage
      }
    }
    if (total == 0) {
      if (!resync) ++result.corrupt;
      resync = true;
      pos = next_marker(pos + 1);
      continue;
    }
    const std::size_t len = bytes[pos + 1];
    JournalRecord record;
    if (crc32c(bytes + pos + 2, len) == get_le32(bytes + pos + 2 + len) &&
        decode_v3_payload(bytes + pos + 2, len, record)) {
      (record.lease ? result.leases
                    : record.stop ? result.stops
                                  : result.records)
          .push_back(record);
    } else {
      ++result.corrupt;  // a framed record with a flipped bit
    }
    resync = false;
    pos += total;
  }
}

/// Writes `size` bytes with one write(2). Returns "" on success, else
/// what went wrong; a short write is a failure, never resumed, so each
/// record of a block is either wholly in the file or visibly torn.
/// EINTR is retried only when it interrupted the call before any byte
/// moved.
std::string write_once(int fd, const void* data, std::size_t size) {
  ssize_t wrote;
  do {
    wrote = ::write(fd, data, size);
  } while (wrote < 0 && errno == EINTR);
  if (wrote < 0) return std::strerror(errno);
  if (std::size_t(wrote) != size) {
    return "short write: " + std::to_string(wrote) + " of " +
           std::to_string(size) + " bytes";
  }
  return {};
}

}  // namespace

JournalLoad Journal::inspect(const std::string& path) {
  JournalLoad result;
  std::string data;
  if (read_file(path, data) && !data.empty()) {
    parse_v3_journal(path, data, result);
  }
  return result;
}

JournalLoad Journal::load(const std::string& path,
                          std::uint64_t fingerprint) {
  JournalLoad result = inspect(path);
  if (result.has_header && result.fingerprint != fingerprint) {
    throw std::runtime_error(
        "journal '" + path +
        "' was written for a different campaign configuration "
        "(journal fingerprint " + hex16(result.fingerprint) +
        ", this campaign " + hex16(fingerprint) +
        "); --resume requires the identical campaign and engine "
        "flags. Re-run with the original configuration, or delete "
        "the journal (or drop --resume) to start over");
  }
  return result;
}

Journal::Journal(const std::string& path, std::uint64_t fingerprint,
                 JournalFormat)
    : path_(path) {
  // O_APPEND keeps existing records (resume) and makes every write(2)
  // land whole at the end of the file; O_RDWR lets us check an
  // existing header. The header is only written when the file is
  // empty.
  fd_ = ::open(path.c_str(), O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC, 0666);
  if (fd_ < 0) {
    throw std::runtime_error(
        "cannot open journal '" + path + "' for appending: " +
        std::strerror(errno) +
        " (check the directory exists and is writable)");
  }
  const auto fail = [&](const std::string& what) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("journal '" + path + "': " + what);
  };
  // A non-seekable path (pipe, some special files) makes the
  // size/header logic below meaningless — fail loudly instead of
  // producing a headerless journal that load() later rejects.
  const off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size < 0) fail(std::string("cannot seek: ") + std::strerror(errno));
  if (size == 0) {
    unsigned char header[kV3HeaderSize];
    std::memcpy(header, kV3Magic, sizeof kV3Magic);
    put_le32(header + 8, 3);
    put_le64(header + 12, fingerprint);
    header[kV3HeaderSize - 1] = '\n';
    const std::string error = write_once(fd_, header, sizeof header);
    if (!error.empty()) fail("cannot write header: " + error);
    return;
  }
  // Appending v3 records to anything else would leave a file no reader
  // accepts; refuse before a byte is written.
  unsigned char head[sizeof kV3Magic] = {};
  const ssize_t got = ::pread(fd_, head, sizeof head, 0);
  if (got < 0) {
    fail(std::string("cannot read header: ") + std::strerror(errno));
  }
  if (std::size_t(got) != sizeof head ||
      std::memcmp(head, kV3Magic, sizeof head) != 0) {
    fail(kNotV3);
  }
}

Journal::Journal(std::FILE* stream, std::string name)
    : path_(std::move(name)) {
  if (stream == nullptr) {
    throw std::runtime_error("journal '" + path_ + "': null stream");
  }
  // Hand what the caller prepared to the kernel, then keep only the
  // descriptor: appends bypass stdio. A stream that cannot even flush
  // its preamble starts out poisoned.
  if (std::fflush(stream) != 0) failed_.store(true);
  fd_ = ::fcntl(::fileno(stream), F_DUPFD_CLOEXEC, 0);
  int error = errno;
  std::fclose(stream);
  if (fd_ >= 0 &&
      ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_APPEND) < 0) {
    error = errno;
    ::close(fd_);
    fd_ = -1;
  }
  if (fd_ < 0) {
    throw std::runtime_error("journal '" + path_ +
                             "': cannot adopt stream: " + std::strerror(error));
  }
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

void Journal::append(std::span<const JournalRecord> records) {
  static auto& appends = metrics::registry().counter(
      "journal.appends", metrics::Determinism::kDeterministic);
  static auto& writes = metrics::registry().counter(
      "journal.writes", metrics::Determinism::kDeterministic);
  static auto& append_ms = metrics::registry().timing("journal.append_ms");
  while (!records.empty()) {
    const std::span<const JournalRecord> block =
        records.first(std::min(records.size(), kMaxBlock));
    records = records.subspan(block.size());
    const metrics::Span span("journal.append", "journal", block.front().index);
    const metrics::ScopedTimer timer(append_ms);
    appends.add(block.size());
    writes.add();
    if (failed_.load()) {
      // The file already holds (at best) a torn record; appending more
      // would journal cells the resume path can never trust.
      throw std::runtime_error("journal '" + path_ +
                               "': earlier write failed; records dropped");
    }
    unsigned char bytes[kMaxBlock * kMaxV3Line];
    std::size_t size = 0;
    for (const JournalRecord& record : block) {
      size += encode_v3_line(record, chaos_, bytes + size);
    }
    // No lock: the block was built on this stack, and one O_APPEND
    // write(2) puts it whole at the end of the file. A short write is
    // the only way part of it could land; it fails and poisons below.
    // An append racing a failing one may still land after the damaged
    // bytes; the reader resynchronizes past them, so its records stay
    // valid.
    const std::string error = write_once(fd_, bytes, size);
    if (!error.empty()) {
      failed_.store(true);
      throw std::runtime_error("journal '" + path_ + "': write failed (" +
                               error + "); resume data is incomplete");
    }
  }
}

JournalMergeStats merge_journals(const std::vector<std::string>& inputs,
                                 const std::string& out_path) {
  if (inputs.empty()) {
    throw std::runtime_error("journal merge: no input journals");
  }
  for (const std::string& in : inputs) {
    if (in == out_path) {
      throw std::runtime_error("journal merge: output '" + out_path +
                               "' is also an input");
    }
  }
  JournalMergeStats stats;
  stats.inputs = inputs.size();
  std::vector<JournalLoad> loads;
  loads.reserve(inputs.size());
  for (const std::string& in : inputs) {
    JournalLoad& loaded = loads.emplace_back(Journal::inspect(in));
    if (!loaded.has_header) {
      throw std::runtime_error("journal merge: '" + in +
                               "' is missing, empty, or has no journal "
                               "header; every shard must be a journal");
    }
    if (loaded.fingerprint != loads.front().fingerprint) {
      throw std::runtime_error(
          "journal merge: '" + in + "' has fingerprint " +
          hex16(loaded.fingerprint) + " but '" + inputs.front() + "' has " +
          hex16(loads.front().fingerprint) +
          "; shards of one campaign share a fingerprint — these journals "
          "belong to different campaigns");
    }
    stats.corrupt += loaded.corrupt;
    stats.records_in += loaded.records.size() + loaded.stops.size() +
                        loaded.leases.size();
  }
  stats.fingerprint = loads.front().fingerprint;

  // One slot per record, sorted stably into output order: cells by
  // index, then stop records by stratum, then lease events in input
  // order (an event history, never coalesced). Slots for one index
  // stay in input order, so the first record seen is the one kept.
  struct Slot {
    int rank;             // 0 cell, 1 stop record, 2 lease event
    std::uint64_t index;  // sort key within the rank
    const JournalRecord* record;
    std::size_t input;  // for conflict messages
  };
  std::vector<Slot> slots;
  slots.reserve(stats.records_in);
  for (std::size_t input = 0; input < loads.size(); ++input) {
    for (const JournalRecord& record : loads[input].records) {
      slots.push_back({0, record.index, &record, input});
    }
    for (const JournalRecord& record : loads[input].stops) {
      slots.push_back({1, record.index, &record, input});
    }
    for (const JournalRecord& record : loads[input].leases) {
      slots.push_back({2, 0, &record, input});
    }
  }
  std::stable_sort(slots.begin(), slots.end(),
                   [](const Slot& a, const Slot& b) {
                     return a.rank != b.rank ? a.rank < b.rank
                                             : a.index < b.index;
                   });

  // Coalesce duplicates before the output is touched: a conflict
  // leaves `out_path` as it was.
  std::size_t kept = 0;
  for (const Slot& slot : slots) {
    const Slot* last = kept > 0 ? &slots[kept - 1] : nullptr;
    if (slot.rank != 2 && last != nullptr && last->rank == slot.rank &&
        last->index == slot.index) {
      const JournalRecord& record = *slot.record;
      if (*last->record == record) {
        ++stats.duplicates;  // overlapping shard ranges — benign
        continue;
      }
      const std::string sources =
          inputs[last->input] + "' and '" + inputs[slot.input];
      if (record.stop) {
        throw std::runtime_error(
            "journal merge: stratum " + std::to_string(record.index) +
            " has conflicting stop records in '" + sources +
            "' (same fingerprint, different stopping point); the shards "
            "disagree — refusing to merge");
      }
      throw std::runtime_error(
          "journal merge: cell " + std::to_string(record.index) +
          " has conflicting records in '" + sources +
          "' (same fingerprint, different payload); the shards disagree "
          "about a result — refusing to merge");
    }
    slots[kept++] = slot;
  }
  slots.resize(kept);

  std::remove(out_path.c_str());
  Journal out(out_path, stats.fingerprint);
  // One write(2) per kMaxBlock records; the bytes are those of
  // appending the records one at a time.
  std::vector<JournalRecord> block;
  block.reserve(Journal::kMaxBlock);
  for (const Slot& slot : slots) {
    block.push_back(*slot.record);
    if (block.size() == Journal::kMaxBlock) {
      out.append(block);
      block.clear();
    }
  }
  if (!block.empty()) out.append(block);
  stats.records_out = stats.records_in - stats.duplicates;
  return stats;
}

}  // namespace vds::runtime
