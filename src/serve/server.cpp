#include "serve/server.hpp"

#include <exception>
#include <utility>
#include <vector>

#include "runtime/mc_campaign.hpp"
#include "runtime/metrics.hpp"
#include "scenario/report_json.hpp"

namespace vds::serve {

namespace {

using runtime::metrics::Determinism;

// Request-path event counts. All of them depend on client timing and
// queue occupancy, so none can promise --threads determinism.
struct ServeCounters {
  runtime::metrics::Counter& accepted;
  runtime::metrics::Counter& rejected;
  runtime::metrics::Counter& completed;
  runtime::metrics::Counter& batches;
  runtime::metrics::Timing& queue_ms;
  runtime::metrics::Timing& service_ms;
};

ServeCounters& serve_counters() {
  auto& reg = runtime::metrics::registry();
  static ServeCounters counters{
      reg.counter("serve.requests_accepted", Determinism::kScheduling),
      reg.counter("serve.requests_rejected", Determinism::kScheduling),
      reg.counter("serve.requests_completed", Determinism::kScheduling),
      reg.counter("serve.batches", Determinism::kScheduling),
      reg.timing("serve.queue_ms"),
      reg.timing("serve.service_ms"),
  };
  return counters;
}

double ms_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(options), pool_(options.threads) {
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

Server::~Server() { finish(); }

void Server::submit(const std::string& line,
                    std::shared_ptr<ResponseSink> sink) {
  ServeRequest request;
  try {
    request = parse_request(line);
  } catch (const std::exception& error) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++counts_.bad_requests;
    }
    serve_counters().rejected.add();
    sink->write_line(format_error(request_id_hint(line), kErrBadRequest,
                                  error.what()));
    return;
  }

  if (request.type == RequestType::kStats) {
    // Health probes answer from the submitting thread: they must work
    // precisely when the queue is at its worst.
    sink->write_line(format_stats(request.id, stats_snapshot()));
    return;
  }

  if (runtime::drain_requested()) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++counts_.rejected_drain;
    }
    serve_counters().rejected.add();
    sink->write_line(
        format_error(request.id, kErrDrain, "server draining on signal"));
    return;
  }

  Pending pending;
  pending.sink = std::move(sink);
  pending.enqueued = Clock::now();
  if (request.deadline_ms > 0.0) {
    pending.deadline =
        pending.enqueued +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(request.deadline_ms));
  }
  pending.request = std::move(request);

  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stop_) {
      lock.unlock();
      {
        std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        ++counts_.rejected_drain;
      }
      serve_counters().rejected.add();
      pending.sink->write_line(format_error(pending.request.id, kErrDrain,
                                            "server shutting down"));
      return;
    }
    if (outstanding_ >= options_.queue_limit) {
      lock.unlock();
      {
        std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        ++counts_.rejected_queue_full;
      }
      serve_counters().rejected.add();
      pending.sink->write_line(format_error(
          pending.request.id, kErrQueueFull,
          "queue limit " + std::to_string(options_.queue_limit) +
              " outstanding requests reached"));
      return;
    }
    ++outstanding_;
    queue_.push_back(std::move(pending));
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++counts_.accepted;
  }
  serve_counters().accepted.add();
  cv_.notify_one();
}

void Server::finish() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

void Server::reject(const Pending& pending, std::string_view code,
                    std::string_view message) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (code == kErrDeadline) {
      ++counts_.rejected_deadline;
    } else if (code == kErrDrain) {
      ++counts_.rejected_drain;
    }
  }
  serve_counters().rejected.add();
  pending.sink->write_line(
      format_error(pending.request.id, code, std::string(message)));
  std::lock_guard<std::mutex> lock(mutex_);
  --outstanding_;
}

void Server::record_done(const Pending& pending,
                         Clock::time_point dispatched) {
  const auto now = Clock::now();
  const double queue_ms = ms_between(pending.enqueued, dispatched);
  const double service_ms = ms_between(dispatched, now);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++counts_.completed;
    queue_ms_.add(queue_ms);
    service_ms_.add(service_ms);
  }
  serve_counters().completed.add();
  serve_counters().queue_ms.record_ms(queue_ms);
  serve_counters().service_ms.record_ms(service_ms);
  std::lock_guard<std::mutex> lock(mutex_);
  --outstanding_;
}

void Server::dispatcher_loop() {
  for (;;) {
    std::deque<Pending> batch;
    bool draining = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // Bounded wait so a drain signal (only a flag set from the
      // handler; it cannot notify a cv) is noticed promptly.
      cv_.wait_for(lock, std::chrono::milliseconds(50),
                   [&] { return stop_ || !queue_.empty(); });
      draining = runtime::drain_requested();
      if (draining) {
        batch.swap(queue_);
      } else {
        while (!queue_.empty() && batch.size() < options_.batch_max) {
          batch.push_back(std::move(queue_.front()));
          queue_.pop_front();
        }
      }
      if (batch.empty() && stop_ && queue_.empty()) return;
    }
    if (draining) {
      // The batch in flight already finished (we are the only thread
      // that runs batches); everything still queued fails loudly.
      for (const Pending& pending : batch) {
        reject(pending, kErrDrain, "server draining on signal");
      }
      continue;  // keep looping until finish() sets stop_
    }
    if (!batch.empty()) process_batch(batch);
  }
}

void Server::process_batch(std::deque<Pending>& batch) {
  struct RunState {
    scenario::RunOutcome outcome;
    bool failed = false;
    std::string error;
  };
  struct Job {
    Pending* pending = nullptr;
    runtime::McConfig config;
    std::unique_ptr<runtime::McExecution> exec;  // campaign requests
    std::shared_ptr<RunState> run;               // run requests
  };

  const auto dispatched = Clock::now();
  std::vector<Job> jobs;
  jobs.reserve(batch.size());

  // Enqueue every request's cells before the single barrier: this is
  // the batching — cells from different requests interleave freely on
  // the pool because each one re-derives its RNG substream from its
  // own (seed, index), so coalescing cannot perturb any result.
  for (Pending& pending : batch) {
    if (pending.deadline != Clock::time_point{} &&
        Clock::now() >= pending.deadline) {
      reject(pending, kErrDeadline, "deadline expired before dispatch");
      continue;
    }
    Job job;
    job.pending = &pending;
    if (pending.request.type == RequestType::kCampaign) {
      job.config = scenario::to_mc_config(pending.request.campaign,
                                          pending.request.scenario);
      // The server owns execution policy: shared pool (threads field
      // unused), no journal, no chaos, drain must not truncate an
      // admitted request, deadlines come from the request.
      job.config.honor_global_drain = false;
      job.config.deadline = pending.deadline;
      try {
        job.exec = std::make_unique<runtime::McExecution>(
            job.config,
            scenario::make_mc_runner(pending.request.scenario));
      } catch (const std::exception& error) {
        reject(pending, kErrInternal, error.what());
        continue;
      }
      job.exec->enqueue(pool_);
    } else {
      job.run = std::make_shared<RunState>();
      auto run = job.run;
      auto scenario_copy = pending.request.scenario;
      pool_.submit([run, scenario_copy] {
        try {
          run->outcome = scenario::run_scenario_once(scenario_copy);
        } catch (const std::exception& error) {
          run->failed = true;
          run->error = error.what();
        } catch (...) {
          run->failed = true;
          run->error = "unknown error";
        }
      });
    }
    jobs.push_back(std::move(job));
  }

  // The dispatcher is the pool's only wait_idle caller, so one
  // request's failure can never be stolen by another's barrier.
  try {
    pool_.wait_idle();
  } catch (const std::exception& error) {
    // Serve-mode configs have no journal, so cell tasks have nothing
    // to throw; treat any surprise as fatal for the whole batch.
    for (Job& job : jobs) {
      reject(*job.pending, kErrInternal, error.what());
    }
    return;
  }

  for (Job& job : jobs) {
    Pending& pending = *job.pending;
    const double queue_ms = ms_between(pending.enqueued, dispatched);
    std::string line;
    if (job.exec) {
      const runtime::McSummary summary = job.exec->reduce(pool_);
      line = format_campaign_response(
          pending.request.id, job.config, summary, queue_ms,
          ms_between(dispatched, Clock::now()));
    } else {
      if (job.run->failed) {
        reject(pending, kErrInternal, job.run->error);
        continue;
      }
      line = format_run_response(
          pending.request.id, pending.request.scenario,
          job.run->outcome.faults_scheduled, job.run->outcome.report,
          queue_ms, ms_between(dispatched, Clock::now()));
    }
    pending.sink->write_line(line);
    record_done(pending, dispatched);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++counts_.batches;
  }
  serve_counters().batches.add();
}

void Server::note_transport_error() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++counts_.transport_errors;
}

StatsSnapshot Server::stats_snapshot() {
  StatsSnapshot snapshot;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    snapshot = counts_;
    snapshot.queue_count = queue_ms_.accumulator().count();
    snapshot.queue_mean = queue_ms_.accumulator().mean();
    snapshot.queue_p50 = queue_ms_.quantile(0.5);
    snapshot.queue_p99 = queue_ms_.quantile(0.99);
    snapshot.service_count = service_ms_.accumulator().count();
    snapshot.service_mean = service_ms_.accumulator().mean();
    snapshot.service_p50 = service_ms_.quantile(0.5);
    snapshot.service_p99 = service_ms_.quantile(0.99);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot.queue_depth = queue_.size();
    snapshot.outstanding = outstanding_;
  }
  return snapshot;
}

}  // namespace vds::serve
