#pragma once

// Low-overhead observability layer: thread-sharded monotonic counters,
// wall-clock timing histograms (sim::Histogram) and RAII
// trace spans, collected in one process-wide registry and serialized
// as a `vds.metrics.v1` JSON snapshot plus a Chrome trace-event file
// (loadable in chrome://tracing and Perfetto).
//
// Determinism contract (DESIGN §8): every counter is registered as
// either *deterministic* — an event count that is a pure function of
// the workload, bitwise identical for any `--threads` value and any
// scheduling (engine rounds, comparisons, recoveries, cells executed)
// — or *scheduling* — a count that depends on how the OS interleaved
// the workers (steals, idle wakeups). The snapshot keeps the two in
// separate sections so "compare two runs" is a byte comparison of the
// deterministic section. Timings are wall-clock and never
// deterministic; they live in their own section.
//
// Cost model: everything is gated on `Registry::set_enabled` /
// `set_tracing` (both default off) — a disabled counter add is one
// relaxed atomic load and a branch, a disabled timer or span is a
// no-op without even a clock read. Compiling with -DVDS_METRICS=OFF
// replaces the whole layer with empty inline stubs (near-zero cost,
// proven by bench_metrics_overhead); the CLI flags stay accepted and
// emit an empty snapshot so tooling does not break.
//
// Usage pattern at an instrumentation site (the function-local static
// makes the name lookup a one-time cost):
//
//   static auto& c = metrics::registry().counter(
//       "engine.comparisons", metrics::Determinism::kDeterministic);
//   c.add();

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string_view>

#ifndef VDS_METRICS_ENABLED
#define VDS_METRICS_ENABLED 1
#endif

namespace vds::runtime::metrics {

/// How a counter behaves across scheduling decisions (see above).
enum class Determinism {
  kDeterministic,  ///< pure function of the workload
  kScheduling,     ///< depends on thread interleaving
};

/// Sentinel for "span carries no argument".
inline constexpr std::uint64_t kNoArg = ~std::uint64_t{0};

#if VDS_METRICS_ENABLED

class Registry;

/// Monotonic counter, sharded across cache-line-padded slots so
/// concurrent adds from different workers do not contend. `total()`
/// sums the shards; integer addition commutes, so the total is exact
/// and thread-count independent for deterministic counters.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void add(std::uint64_t n = 1) noexcept;

  [[nodiscard]] std::uint64_t total() const noexcept;

 private:
  friend class Registry;
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void reset() noexcept;

  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Shard, kShards> shards_;
};

/// Wall-clock timing distribution: sharded (mutex + sim::Histogram)
/// pairs, merged at snapshot time. Recording is a no-op while the
/// registry is disabled.
class Timing {
 public:
  void record_ms(double ms) noexcept;

 private:
  friend class Registry;
  struct Impl;
  explicit Timing(Impl* impl) noexcept : impl_(impl) {}
  Timing(const Timing&) = delete;
  Timing& operator=(const Timing&) = delete;

  Impl* impl_;
};

/// RAII Chrome-trace span ("X" complete event). Inactive (no clock
/// read) unless tracing is enabled. `name` and `cat` must be string
/// literals (the span stores the pointers, not copies).
class Span {
 public:
  explicit Span(const char* name, const char* cat = "vds",
                std::uint64_t arg = kNoArg) noexcept;
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  const char* cat_;
  std::uint64_t arg_;
  std::uint64_t start_ns_ = 0;
  bool active_ = false;
};

/// Times a scope into a Timing when the registry is enabled.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timing& timing) noexcept;
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timing* timing_ = nullptr;  // nullptr while disabled
  std::uint64_t start_ns_ = 0;
};

/// The process-wide registry. Instruments register counters/timings by
/// name (get-or-create; the returned references stay valid for the
/// process lifetime — `reset()` zeroes values, it never invalidates).
class Registry {
 public:
  /// Get-or-create. A name must keep one Determinism for the whole
  /// process; re-registering with a different one keeps the first.
  Counter& counter(std::string_view name, Determinism determinism);

  /// Get-or-create a timing histogram (sim::Histogram: any duration
  /// from 1 ns to 70 min, quantiles within 1.6 %).
  Timing& timing(std::string_view name);

  /// Master switch for counters and timings (default off).
  void set_enabled(bool on) noexcept;
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Switch for trace spans (default off). Enabling (re)starts the
  /// trace clock at zero and clears previously collected events.
  void set_tracing(bool on);
  [[nodiscard]] bool tracing() const noexcept {
    return tracing_.load(std::memory_order_relaxed);
  }

  /// Zeroes every counter, clears every timing and drops collected
  /// trace events. References handed out earlier remain valid.
  void reset();

  /// Serializes the `vds.metrics.v1` snapshot: deterministic counters,
  /// scheduling counters and merged timing distributions.
  void write_snapshot(std::ostream& os) const;

  /// Writes the counters of one determinism class as sorted
  /// `name value` lines — the byte-comparable form the determinism
  /// tests (and debugging) use.
  void write_counters(std::ostream& os, Determinism which) const;

  /// Serializes collected spans as a Chrome trace-event JSON array
  /// (chrome://tracing / Perfetto "JSON" format).
  void write_trace(std::ostream& os) const;

  struct Impl;  // public so the per-thread trace buffers can reach it

 private:
  friend Registry& registry();
  friend class Span;
  Registry();
  ~Registry() = delete;  // leaked singleton: no shutdown-order hazards

  Impl* impl_;

  std::atomic<bool> enabled_{false};
  std::atomic<bool> tracing_{false};
};

/// The process-wide registry (leaked singleton, safe to use from any
/// thread and during static destruction).
[[nodiscard]] Registry& registry();

#else  // !VDS_METRICS_ENABLED -------------------------------------------

// Compiled-out stubs: same API, empty inline bodies. Call sites need
// no #ifdefs and the optimizer erases them entirely.

class Counter {
 public:
  void add(std::uint64_t = 1) noexcept {}
  [[nodiscard]] std::uint64_t total() const noexcept { return 0; }
};

class Timing {
 public:
  void record_ms(double) noexcept {}
};

class Span {
 public:
  explicit Span(const char*, const char* = "vds",
                std::uint64_t = kNoArg) noexcept {}
};

class ScopedTimer {
 public:
  explicit ScopedTimer(Timing&) noexcept {}
};

class Registry {
 public:
  Counter& counter(std::string_view, Determinism) noexcept {
    return counter_;
  }
  Timing& timing(std::string_view) noexcept {
    return timing_;
  }
  void set_enabled(bool) noexcept {}
  [[nodiscard]] bool enabled() const noexcept { return false; }
  void set_tracing(bool) noexcept {}
  [[nodiscard]] bool tracing() const noexcept { return false; }
  void reset() noexcept {}
  void write_snapshot(std::ostream& os) const;
  void write_counters(std::ostream&, Determinism) const {}
  void write_trace(std::ostream& os) const;

 private:
  Counter counter_;
  Timing timing_;
};

[[nodiscard]] Registry& registry();

#endif  // VDS_METRICS_ENABLED

}  // namespace vds::runtime::metrics
