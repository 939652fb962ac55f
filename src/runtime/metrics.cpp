#include "runtime/metrics.hpp"

#include <ostream>

#include "runtime/json_writer.hpp"

#if VDS_METRICS_ENABLED

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/stats.hpp"

namespace vds::runtime::metrics {

namespace {

[[nodiscard]] std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Stable per-thread shard index. Threads round-robin over the shard
/// count; two threads may share a shard (correct, just contended).
[[nodiscard]] std::size_t this_thread_shard() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed);
  return shard;
}

/// One collected Chrome-trace complete event. Timestamps are absolute
/// steady-clock ns; the trace epoch is subtracted at serialization.
struct TraceEvent {
  const char* name;
  const char* cat;
  std::uint64_t arg;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
  std::uint32_t tid;
};

// A full campaign traces a few events per cell; this cap only guards
// against runaway span loops eating the heap.
constexpr std::size_t kMaxEventsPerThread = std::size_t{1} << 20;

}  // namespace

// ---------------------------------------------------------------- Counter

void Counter::add(std::uint64_t n) noexcept {
  if (!registry().enabled()) return;
  shards_[this_thread_shard() % kShards].value.fetch_add(
      n, std::memory_order_relaxed);
}

std::uint64_t Counter::total() const noexcept {
  std::uint64_t sum = 0;
  for (const Shard& s : shards_) sum += s.value.load(std::memory_order_relaxed);
  return sum;
}

void Counter::reset() noexcept {
  for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
}

// ----------------------------------------------------------------- Timing

struct Timing::Impl {
  static constexpr std::size_t kShards = 8;

  struct alignas(64) Shard {
    std::mutex mutex;
    sim::Histogram histogram;
  };

  void record(double ms) noexcept {
    Shard& s = shards_[this_thread_shard() % kShards];
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.histogram.add(ms);
  }

  void reset() {
    for (Shard& s : shards_) {
      const std::lock_guard<std::mutex> lock(s.mutex);
      s.histogram = sim::Histogram{};
    }
  }

  [[nodiscard]] sim::Histogram merged() {
    sim::Histogram all;
    for (Shard& s : shards_) {
      const std::lock_guard<std::mutex> lock(s.mutex);
      all.merge(s.histogram);
    }
    return all;
  }

  std::array<Shard, kShards> shards_;
};

void Timing::record_ms(double ms) noexcept {
  if (!registry().enabled()) return;
  impl_->record(ms);
}

// --------------------------------------------------------------- Registry

namespace {

struct ThreadBuffer;

}  // namespace

struct Registry::Impl {
  struct CounterEntry {
    std::unique_ptr<Counter> counter;
    Determinism determinism;
  };
  struct TimingEntry {
    std::unique_ptr<Timing::Impl> impl;
    std::unique_ptr<Timing> handle;
  };

  // Guards the maps and the trace buffers. Lock order: this mutex
  // first, then a ThreadBuffer's mutex — never the reverse.
  mutable std::mutex mutex;
  std::map<std::string, CounterEntry, std::less<>> counters;
  std::map<std::string, TimingEntry, std::less<>> timings;

  std::vector<TraceEvent> retired;  ///< events of exited threads
  std::vector<ThreadBuffer*> live;
  std::uint64_t retired_dropped = 0;
  std::uint64_t epoch_ns = 0;  ///< trace time zero (set by set_tracing)
  std::uint32_t next_tid = 0;

  void adopt(ThreadBuffer& buf);
  void retire(ThreadBuffer& buf);
  void clear_trace();
  [[nodiscard]] std::vector<TraceEvent> collect_trace(
      std::uint64_t* dropped) const;
};

namespace {

/// Per-thread span sink. The mutex only contends with a concurrent
/// snapshot/clear — span recording from the owner thread is otherwise
/// an uncontended lock plus a vector push.
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
  std::uint32_t tid = 0;
  Registry::Impl* owner = nullptr;

  ~ThreadBuffer() {
    if (owner != nullptr) owner->retire(*this);
  }

  void record(TraceEvent event) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (events.size() >= kMaxEventsPerThread) {
      ++dropped;
      return;
    }
    event.tid = tid;
    events.push_back(event);
  }
};

ThreadBuffer& local_buffer(Registry::Impl& impl) {
  thread_local ThreadBuffer buffer;
  if (buffer.owner == nullptr) impl.adopt(buffer);
  return buffer;
}

}  // namespace

void Registry::Impl::adopt(ThreadBuffer& buf) {
  const std::lock_guard<std::mutex> lock(mutex);
  buf.owner = this;
  buf.tid = next_tid++;
  live.push_back(&buf);
}

void Registry::Impl::retire(ThreadBuffer& buf) {
  const std::lock_guard<std::mutex> lock(mutex);
  live.erase(std::remove(live.begin(), live.end(), &buf), live.end());
  const std::lock_guard<std::mutex> buf_lock(buf.mutex);
  retired.insert(retired.end(), buf.events.begin(), buf.events.end());
  retired_dropped += buf.dropped;
  buf.events.clear();
}

void Registry::Impl::clear_trace() {
  retired.clear();
  retired_dropped = 0;
  for (ThreadBuffer* buf : live) {
    const std::lock_guard<std::mutex> lock(buf->mutex);
    buf->events.clear();
    buf->dropped = 0;
  }
}

std::vector<TraceEvent> Registry::Impl::collect_trace(
    std::uint64_t* dropped) const {
  std::vector<TraceEvent> events = retired;
  std::uint64_t lost = retired_dropped;
  for (ThreadBuffer* buf : live) {
    const std::lock_guard<std::mutex> lock(buf->mutex);
    events.insert(events.end(), buf->events.begin(), buf->events.end());
    lost += buf->dropped;
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.tid < b.tid;
            });
  if (dropped != nullptr) *dropped = lost;
  return events;
}

Registry::Registry() : impl_(new Impl) {}

Registry& registry() {
  // Leaked on purpose: thread_local trace buffers retire into the
  // registry from thread-exit destructors that may run after static
  // destruction would have torn a non-leaked instance down.
  static Registry* instance = new Registry;
  return *instance;
}

Counter& Registry::counter(std::string_view name, Determinism determinism) {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->counters.find(name);
  if (it == impl_->counters.end()) {
    it = impl_->counters
             .emplace(std::string(name),
                      Impl::CounterEntry{std::unique_ptr<Counter>(new Counter),
                                         determinism})
             .first;
  }
  return *it->second.counter;
}

Timing& Registry::timing(std::string_view name) {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->timings.find(name);
  if (it == impl_->timings.end()) {
    auto impl = std::make_unique<Timing::Impl>();
    std::unique_ptr<Timing> handle(new Timing(impl.get()));
    it = impl_->timings
             .emplace(std::string(name),
                      Impl::TimingEntry{std::move(impl), std::move(handle)})
             .first;
  }
  return *it->second.handle;
}

void Registry::set_enabled(bool on) noexcept {
  enabled_.store(on, std::memory_order_relaxed);
}

void Registry::set_tracing(bool on) {
  if (on) {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->clear_trace();
    impl_->epoch_ns = now_ns();
  }
  tracing_.store(on, std::memory_order_relaxed);
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  for (auto& [name, entry] : impl_->counters) entry.counter->reset();
  for (auto& [name, entry] : impl_->timings) entry.impl->reset();
  impl_->clear_trace();
}

void Registry::write_counters(std::ostream& os, Determinism which) const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  for (const auto& [name, entry] : impl_->counters) {
    if (entry.determinism != which) continue;
    os << name << ' ' << entry.counter->total() << '\n';
  }
}

void Registry::write_snapshot(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  JsonWriter json(os);
  json.begin_object();
  json.field("schema", "vds.metrics.v1");
  json.field("compiled", true);

  const auto counters_section = [&](std::string_view section,
                                    Determinism which) {
    json.key(section);
    json.begin_object();
    for (const auto& [name, entry] : impl_->counters) {
      if (entry.determinism != which) continue;
      json.field(name, entry.counter->total());
    }
    json.end_object();
  };
  counters_section("counters", Determinism::kDeterministic);
  counters_section("scheduling", Determinism::kScheduling);

  json.key("timings_ms");
  json.begin_object();
  for (const auto& [name, entry] : impl_->timings) {
    const sim::Histogram h = entry.impl->merged();
    const sim::Accumulator& acc = h.accumulator();
    json.key(name);
    json.begin_object();
    json.field("count", h.total());
    json.field("mean", acc.mean());
    json.field("stddev", acc.stddev());
    json.field("min", acc.min());
    json.field("max", acc.max());
    json.field("p50", h.quantile(0.50));
    json.field("p90", h.quantile(0.90));
    json.field("p99", h.quantile(0.99));
    json.field("underflow", h.underflow());
    json.field("overflow", h.overflow());
    json.field("nan", h.nan_count());
    json.end_object();
  }
  json.end_object();
  json.end_object();
}

void Registry::write_trace(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  std::uint64_t dropped = 0;
  const std::vector<TraceEvent> events = impl_->collect_trace(&dropped);
  JsonWriter json(os);
  json.begin_array();
  for (const TraceEvent& e : events) {
    const std::uint64_t rel =
        e.start_ns >= impl_->epoch_ns ? e.start_ns - impl_->epoch_ns : 0;
    json.begin_object();
    json.field("name", e.name);
    json.field("cat", e.cat);
    json.field("ph", "X");
    json.field("ts", static_cast<double>(rel) / 1000.0);
    json.field("dur", static_cast<double>(e.dur_ns) / 1000.0);
    json.field("pid", 1);
    json.field("tid", static_cast<std::int64_t>(e.tid));
    if (e.arg != kNoArg) {
      json.key("args");
      json.begin_object();
      json.field("arg", e.arg);
      json.end_object();
    }
    json.end_object();
  }
  // Surface silent truncation inside the trace itself.
  if (dropped != 0) {
    json.begin_object();
    json.field("name", "metrics.trace_events_dropped");
    json.field("cat", "vds");
    json.field("ph", "X");
    json.field("ts", 0.0);
    json.field("dur", 0.0);
    json.field("pid", 1);
    json.field("tid", 0);
    json.key("args");
    json.begin_object();
    json.field("dropped", dropped);
    json.end_object();
    json.end_object();
  }
  json.end_array();
  os << '\n';
}

// ------------------------------------------------------------------- Span

Span::Span(const char* name, const char* cat, std::uint64_t arg) noexcept
    : name_(name), cat_(cat), arg_(arg) {
  if (!registry().tracing()) return;
  active_ = true;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (!active_) return;
  const std::uint64_t end_ns = now_ns();
  Registry& reg = registry();
  if (!reg.tracing()) return;  // tracing stopped mid-span: drop it
  local_buffer(*reg.impl_).record(TraceEvent{
      name_, cat_, arg_, start_ns_, end_ns - start_ns_,
      /*tid=*/0});  // the buffer stamps its own tid
}

// --------------------------------------------------------------- Timers

ScopedTimer::ScopedTimer(Timing& timing) noexcept {
  if (!registry().enabled()) return;
  timing_ = &timing;
  start_ns_ = now_ns();
}

ScopedTimer::~ScopedTimer() {
  if (timing_ == nullptr) return;
  const std::uint64_t end_ns = now_ns();
  timing_->record_ms(static_cast<double>(end_ns - start_ns_) / 1e6);
}

}  // namespace vds::runtime::metrics

#else  // !VDS_METRICS_ENABLED -------------------------------------------

namespace vds::runtime::metrics {

Registry& registry() {
  static Registry instance;
  return instance;
}

void Registry::write_snapshot(std::ostream& os) const {
  JsonWriter json(os);
  json.begin_object();
  json.field("schema", "vds.metrics.v1");
  json.field("compiled", false);
  json.key("counters");
  json.begin_object();
  json.end_object();
  json.key("scheduling");
  json.begin_object();
  json.end_object();
  json.key("timings_ms");
  json.begin_object();
  json.end_object();
  json.end_object();
}

void Registry::write_trace(std::ostream& os) const { os << "[]\n"; }

}  // namespace vds::runtime::metrics

#endif  // VDS_METRICS_ENABLED
