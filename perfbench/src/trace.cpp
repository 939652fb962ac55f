#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <ostream>
#include <unordered_map>

namespace perfbench::trace {

namespace {

struct Buffer {
  std::uint32_t tid = 0;
  std::vector<Span> spans;
};

// Buffers outlive the threads that filled them (pool workers exit when
// their pool is destroyed), so the registry owns them.
struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<Buffer>> buffers;  // guarded by mutex
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::int64_t> epoch_ns{0};
};

Registry& registry() {
  static Registry* instance = new Registry();  // leaked: threads may outlive main
  return *instance;
}

std::int64_t clock_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

Buffer& local_buffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.buffers.push_back(std::make_unique<Buffer>());
    buffer = reg.buffers.back().get();
    buffer->tid = static_cast<std::uint32_t>(reg.buffers.size() - 1);
  }
  return *buffer;
}

}  // namespace

void reset() {
  Registry& reg = registry();
  {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    for (auto& buffer : reg.buffers) buffer->spans.clear();
  }
  reg.epoch_ns.store(clock_ns());
}

std::int64_t now_ns() noexcept {
  return clock_ns() - registry().epoch_ns.load(std::memory_order_relaxed);
}

std::uint64_t next_id() noexcept {
  return registry().next_id.fetch_add(1, std::memory_order_relaxed);
}

void record(const Span& span) {
  Buffer& buffer = local_buffer();
  Span copy = span;
  copy.tid = buffer.tid;
  buffer.spans.push_back(copy);
}

std::vector<Span> collect() {
  Registry& reg = registry();
  std::vector<Span> all;
  {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto& buffer : reg.buffers) {
      all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    }
  }
  std::stable_sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return all;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  index_of.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  // Children intervals per parent, clipped to the parent's interval.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
      spans.size());
  for (const Span& child : spans) {
    const auto it = index_of.find(child.parent);
    if (child.parent == 0 || it == index_of.end()) continue;
    const Span& parent = spans[it->second];
    const std::int64_t lo = std::max(child.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(child.end_ns, parent.end_ns);
    if (hi > lo) covered[it->second].emplace_back(lo, hi);
  }

  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t union_ns = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_ns += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

void write_chrome(std::ostream& os, const std::vector<Span>& spans) {
  os << "[\n";
  char buf[96];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << "  {\"name\": \"" << s.name << "\", \"cat\": \"" << s.cat
       << "\", \"ph\": \"X\", ";
    std::snprintf(buf, sizeof buf, "\"ts\": %.3f, \"dur\": %.3f, ",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    os << buf << "\"pid\": 1, \"tid\": " << s.tid << ", \"args\": {";
    if (s.arg != kNoArg) os << "\"arg\": " << s.arg << ", ";
    os << "\"id\": " << s.id << ", \"parent\": " << s.parent << "}}"
       << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  os << "]\n";
}

}  // namespace perfbench::trace
