#include "runtime/thread_pool.hpp"

#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "runtime/chaos.hpp"
#include "runtime/metrics.hpp"

namespace vds::runtime {

namespace {

// Submission/execution counts are a property of the workload
// (deterministic); steals and idle waits depend on how the OS
// scheduled the workers (scheduling).
metrics::Counter& tasks_submitted_counter() {
  static auto& c = metrics::registry().counter(
      "pool.tasks_submitted", metrics::Determinism::kDeterministic);
  return c;
}

metrics::Counter& tasks_executed_counter() {
  static auto& c = metrics::registry().counter(
      "pool.tasks_executed", metrics::Determinism::kDeterministic);
  return c;
}

metrics::Counter& steals_counter() {
  static auto& c = metrics::registry().counter(
      "pool.steals", metrics::Determinism::kScheduling);
  return c;
}

metrics::Counter& idle_waits_counter() {
  static auto& c = metrics::registry().counter(
      "pool.idle_waits", metrics::Determinism::kScheduling);
  return c;
}

metrics::Timing& idle_wait_timing() {
  static auto& t = metrics::registry().timing("pool.idle_wait_ms");
  return t;
}

metrics::Timing& task_timing() {
  static auto& t = metrics::registry().timing("pool.task_ms");
  return t;
}

}  // namespace

unsigned ThreadPool::hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = hardware_threads();
  workers_.reserve(threads);
  for (unsigned k = 0; k < threads; ++k) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(threads);
  for (unsigned k = 0; k < threads; ++k) {
    threads_.emplace_back([this, k] { worker_loop(k); });
  }
}

ThreadPool::~ThreadPool() {
  drain();  // a captured exception nobody waited for is swallowed
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    stop_.store(true);
  }
  sleep_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void ThreadPool::submit(Task task) {
  tasks_submitted_counter().add();
  pending_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t victim =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  {
    std::lock_guard<std::mutex> lock(workers_[victim]->mutex);
    workers_[victim]->queue.push_back(std::move(task));
    unclaimed_.fetch_add(1);
  }
  // Wake one sleeper, if any. Registering as a sleeper and the final
  // predicate check happen under sleep_mutex_, and both sides use
  // seq_cst accesses to unclaimed_/sleepers_, so either the sleeper
  // sees the new task and skips the wait, or we see the sleeper here
  // and the notify cannot be lost.
  if (sleepers_.load() > 0) {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    sleep_cv_.notify_one();
  }
}

void ThreadPool::drain() noexcept {
  std::unique_lock<std::mutex> lock(idle_mutex_);
  idle_cv_.wait(lock, [this] { return pending_.load() == 0; });
}

void ThreadPool::wait_idle() {
  drain();
  std::exception_ptr error;
  std::size_t failures = 0;
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    error = std::exchange(first_error_, nullptr);
    failures = std::exchange(error_count_, 0);
  }
  if (!error) return;
  if (failures <= 1) std::rethrow_exception(error);
  // Several tasks failed in the batch: surface the count instead of
  // pretending the first failure was the only one.
  std::string first;
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    first = e.what();
  } catch (...) {
    first = "unknown exception";
  }
  throw std::runtime_error(std::to_string(failures) +
                           " pool tasks failed; first failure: " + first);
}

bool ThreadPool::try_pop(unsigned id, Task& task) {
  // Own queue first, newest task (LIFO keeps the working set warm)...
  {
    Worker& own = *workers_[id];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.queue.empty()) {
      task = std::move(own.queue.back());
      own.queue.pop_back();
      unclaimed_.fetch_sub(1);
      return true;
    }
  }
  // ...then steal the oldest task from another worker.
  const std::size_t n = workers_.size();
  for (std::size_t k = 1; k < n; ++k) {
    Worker& victim = *workers_[(id + k) % n];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.queue.empty()) {
      task = std::move(victim.queue.front());
      victim.queue.pop_front();
      unclaimed_.fetch_sub(1);
      steals_counter().add();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(unsigned id) {
  for (;;) {
    Task task;
    if (!try_pop(id, task)) {
      idle_waits_counter().add();
      const metrics::ScopedTimer idle_timer(idle_wait_timing());
      std::unique_lock<std::mutex> lock(sleep_mutex_);
      sleepers_.fetch_add(1);
      sleep_cv_.wait(lock, [this] {
        return stop_.load() || unclaimed_.load() > 0;
      });
      sleepers_.fetch_sub(1);
      lock.unlock();
      if (stop_.load() && unclaimed_.load() == 0) return;
      continue;  // re-scan the deques
    }
    if (const Chaos* chaos = chaos_.load(std::memory_order_acquire)) {
      // Deterministically keyed by claim order, but claim order itself
      // is scheduling-dependent: a stress knob, not a results input.
      if (chaos->fires(kChaosPoolDelay,
                       chaos_seq_.fetch_add(1, std::memory_order_relaxed))) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    {
      const metrics::Span span("pool.task", "pool");
      const metrics::ScopedTimer task_timer(task_timing());
      try {
        task();
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex_);
        ++error_count_;
        if (!first_error_) first_error_ = std::current_exception();
      }
    }
    tasks_executed_counter().add();
    task = nullptr;  // destroy captures before reporting completion
    if (pending_.fetch_sub(1) == 1) {
      std::lock_guard<std::mutex> lock(idle_mutex_);
      idle_cv_.notify_all();
    }
  }
}

}  // namespace vds::runtime
