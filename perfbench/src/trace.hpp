#pragma once

// In-memory span recorder for the traced run. Spans are recorded only
// by the benchmark's own code, around its calls into the library, so
// every duration is host time at a layer boundary. Written at exit in
// the Chrome trace-event format the tools' --trace flag emits
// (docs/SCHEMAS.md section 5), so one viewer opens both.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <vector>

namespace perfbench::trace {

using Clock = std::chrono::steady_clock;

inline constexpr std::uint64_t kNoArg = std::numeric_limits<std::uint64_t>::max();

struct Span {
  const char* name = "";  ///< string literal
  const char* cat = "";   ///< string literal: the layer
  std::int64_t start_ns = 0;  ///< relative to reset()
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;      ///< unique, > 0
  std::uint64_t parent = 0;  ///< id of the causing span; 0 = root
  std::uint64_t arg = kNoArg;  ///< cell index or request number
  std::uint32_t tid = 0;     ///< per-thread id, registration order
};

/// Drops every collected span and restarts the clock at zero. Call
/// only while no thread records.
void reset();

/// Nanoseconds since the last reset().
[[nodiscard]] std::int64_t now_ns() noexcept;

/// Appends a finished span to the calling thread's buffer.
void record(const Span& span);

/// Reserves a span id before the span ends, so children started in the
/// meantime (possibly on other threads) can name it as their parent.
[[nodiscard]] std::uint64_t next_id() noexcept;

/// Every recorded span, all threads, sorted by start time. Call only
/// once the threads that record have stopped.
[[nodiscard]] std::vector<Span> collect();

/// Self time of each span (same order as `spans`): its duration minus
/// the part of its interval covered by the union of its children.
[[nodiscard]] std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Chrome trace-event JSON array of complete ("X") events; ts/dur in
/// microseconds. args carry the span id, its parent and its argument.
void write_chrome(std::ostream& os, const std::vector<Span>& spans);

}  // namespace perfbench::trace
