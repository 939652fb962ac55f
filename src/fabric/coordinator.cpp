#include "fabric/coordinator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include <cerrno>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include "fabric/lease_table.hpp"
#include "fabric/protocol.hpp"
#include "runtime/mc_campaign.hpp"
#include "runtime/thread_pool.hpp"
#include "scenario/json_reader.hpp"
#include "serve/transport.hpp"

namespace vds::fabric {

namespace {

using Clock = LeaseTable::Clock;

/// Longest any coordinator thread sleeps without looking at the drain
/// flag, which a signal handler sets but cannot notify.
constexpr auto kDrainCheck = std::chrono::milliseconds(100);

/// Shared coordinator state: the lease table behind one mutex, the
/// first fatal error (a digest conflict) any connection thread hit,
/// and what wakes the waiting threads.
struct Shared {
  std::mutex mutex;
  LeaseTable table;
  /// Notified on every commit, release, expiry and fatal error: each
  /// may give an idle connection a lease to grant, or end the campaign.
  std::condition_variable changed;
  std::atomic<bool> fatal{false};
  std::string fatal_message;  // guarded by mutex
  /// eventfd the accept loop polls beside the listener. Written when
  /// the last lease commits or a fatal error lands, so the loop stops
  /// accepting at once instead of at its next sweep.
  const int wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);

  explicit Shared(LeaseTable::Options options)
      : table(std::move(options)) {}
  ~Shared() {
    if (wake_fd >= 0) ::close(wake_fd);
  }

  void wake_accept_loop() const {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t wrote = ::write(wake_fd, &one, sizeof one);
  }

  void fail(const std::string& message) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (!fatal.exchange(true)) fatal_message = message;
    }
    changed.notify_all();
    wake_accept_loop();
  }
};

/// stderr chatter, suppressed by --quiet. Never touches stdout — the
/// digest line and JSON snapshot own that.
#define FABRIC_LOG(options, ...)                  \
  do {                                            \
    if (!(options).quiet) {                       \
      std::fprintf(stderr, "fabric: " __VA_ARGS__); \
    }                                             \
  } while (0)

/// One worker connection: handshake, then a grant/collect loop until
/// the campaign commits fully, the peer vanishes, or a drain lands.
/// With no lease to grant the thread waits on `Shared::changed`, not
/// on its socket, so the last commit anywhere sends `done` at once.
/// Every exit path releases an outstanding grant so the lease expiry
/// machinery never has to wait out a heartbeat timeout for a
/// connection the coordinator *watched* die.
void serve_worker(const CoordinatorOptions& options, Shared& shared, int fd) {
  serve::LineReader reader(fd);
  serve::FdSink sink(fd, /*owns_fd=*/true);
  std::string line;
  std::string worker = "?";
  std::optional<std::uint64_t> held;

  const auto release_held = [&] {
    if (!held) return;
    {
      std::lock_guard<std::mutex> lock(shared.mutex);
      shared.table.release(*held, Clock::now());
    }
    held.reset();
    shared.changed.notify_all();
  };

  // Handshake: hello in, config out.
  if (reader.next(line) != serve::LineReader::Status::kLine) return;
  try {
    const scenario::JsonValue doc = scenario::parse_json(line);
    if (classify(doc) != MessageKind::kHello) {
      throw std::invalid_argument("expected vds.fabric_hello.v1");
    }
    worker = parse_hello(doc).worker;
  } catch (const std::exception& error) {
    FABRIC_LOG(options, "rejecting connection: %s\n", error.what());
    return;
  }
  Config config;
  config.scenario = options.scenario;
  config.campaign = options.campaign;
  config.chaos = options.campaign.chaos;
  config.heartbeat_ms = options.heartbeat_ms;
  sink.write_line(format_config(config));

  for (;;) {
    if (shared.fatal.load()) break;
    if (sink.failed()) break;  // peer gone mid-write
    if (!held) {
      bool done;
      std::optional<LeaseTable::Grant> grant;
      {
        std::unique_lock<std::mutex> lock(shared.mutex);
        done = shared.table.all_committed();
        if (!done) grant = shared.table.next_grant(Clock::now());
        if (!done && !grant && !shared.fatal.load()) {
          // Nothing to grant before a notify or the earliest backoff
          // deadline; then fall through to a non-blocking look at the
          // socket for a hang-up or a drain.
          Clock::time_point until = Clock::now() + kDrainCheck;
          if (const auto open = shared.table.next_open_at()) {
            until = std::min(until, *open);
          }
          shared.changed.wait_until(lock, until);
        }
      }
      if (done) {
        sink.write_line(format_done());
        break;
      }
      if (grant) {
        held = grant->lease;
        Lease lease;
        lease.lease = grant->lease;
        lease.attempt = grant->attempt;
        lease.lo = grant->lo;
        lease.hi = grant->hi;
        lease.journal = grant->journal;
        sink.write_line(format_lease(lease));
        FABRIC_LOG(options, "%s <- lease %llu (attempt %llu)\n",
                   worker.c_str(),
                   static_cast<unsigned long long>(grant->lease),
                   static_cast<unsigned long long>(grant->attempt));
      }
    }
    // Holding a lease: wait for its heartbeats and result. Idle: the
    // worker sends nothing, so only check for a hang-up.
    switch (reader.poll_next(line, held ? 200 : 0)) {
      case serve::LineReader::Status::kLine: {
        try {
          const scenario::JsonValue doc = scenario::parse_json(line);
          switch (classify(doc)) {
            case MessageKind::kHeartbeat: {
              const Heartbeat heartbeat = parse_heartbeat(doc);
              std::lock_guard<std::mutex> lock(shared.mutex);
              shared.table.heartbeat(heartbeat.lease, Clock::now());
              break;
            }
            case MessageKind::kResult: {
              const Result result = parse_result(doc);
              if (result.lease == held) held.reset();
              if (!result.ok) {
                FABRIC_LOG(options, "%s failed lease %llu: %s\n",
                           worker.c_str(),
                           static_cast<unsigned long long>(result.lease),
                           result.error.c_str());
                {
                  std::lock_guard<std::mutex> lock(shared.mutex);
                  shared.table.release(result.lease, Clock::now());
                }
                shared.changed.notify_all();
                break;
              }
              LeaseTable::CommitOutcome outcome;
              bool finished;
              {
                std::lock_guard<std::mutex> lock(shared.mutex);
                outcome = shared.table.commit(result.lease, result.attempt,
                                              result.digest, result.cells);
                finished = shared.table.all_committed();
              }
              if (outcome == LeaseTable::CommitOutcome::kConflict) {
                shared.fail("lease " + std::to_string(result.lease) +
                            ": worker '" + worker + "' reported digest " +
                            hex16(result.digest) +
                            " but a different digest is already "
                            "committed — shards disagree about the same "
                            "cells, refusing to continue");
                break;
              }
              shared.changed.notify_all();
              if (finished) shared.wake_accept_loop();
              break;
            }
            default:
              throw std::invalid_argument("unexpected message from worker");
          }
        } catch (const std::exception& error) {
          FABRIC_LOG(options, "dropping %s: bad message: %s\n",
                     worker.c_str(), error.what());
          release_held();
          return;
        }
        break;
      }
      case serve::LineReader::Status::kTimeout:
        break;  // re-check grants / completion
      case serve::LineReader::Status::kOverlong:
        FABRIC_LOG(options, "dropping %s: overlong message\n",
                   worker.c_str());
        release_held();
        return;
      case serve::LineReader::Status::kDrain:
      case serve::LineReader::Status::kEof:
      case serve::LineReader::Status::kError:
        release_held();
        return;
    }
  }
  release_held();
}

bool make_workdir(const std::string& path) {
  struct stat st = {};
  if (::stat(path.c_str(), &st) == 0) return S_ISDIR(st.st_mode);
  return ::mkdir(path.c_str(), 0777) == 0;
}

}  // namespace

int run_coordinator(const CoordinatorOptions& options) {
  if (!make_workdir(options.workdir)) {
    std::fprintf(stderr, "fabric: cannot create workdir '%s'\n",
                 options.workdir.c_str());
    return 3;
  }
  // Workers may run from any directory; the journal paths they get in
  // lease grants must not depend on the coordinator's cwd.
  std::string workdir = options.workdir;
  if (char* absolute = ::realpath(workdir.c_str(), nullptr)) {
    workdir.assign(absolute);
    std::free(absolute);
  }
  const runtime::McConfig mc =
      scenario::to_mc_config(options.campaign, options.scenario);
  const std::uint64_t cells = mc.cells();
  // Auto lease size: aim for ~4 leases per expected worker wave, but
  // never fewer than 1 cell or more than the campaign.
  std::uint64_t lease_cells = options.lease_cells;
  if (lease_cells == 0) lease_cells = std::max<std::uint64_t>(cells / 16, 1);

  LeaseTable::Options table_options;
  table_options.total_cells = cells;
  table_options.lease_cells = lease_cells;
  table_options.fingerprint = mc.fingerprint();
  table_options.log_path = workdir + "/assignment.journal";
  table_options.workdir = workdir;
  table_options.resume = options.resume;
  table_options.expiry = std::chrono::milliseconds(options.expiry_ms);
  table_options.backoff_base = std::chrono::milliseconds(options.backoff_ms);
  table_options.backoff_cap =
      std::chrono::milliseconds(options.backoff_cap_ms);

  std::unique_ptr<Shared> shared;
  try {
    shared = std::make_unique<Shared>(std::move(table_options));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fabric: %s\n", error.what());
    return 3;
  }
  if (!options.quiet) {
    std::fprintf(stderr,
                 "fabric: %llu cells in %llu leases (%llu committed from "
                 "log), fingerprint %s\n",
                 static_cast<unsigned long long>(cells),
                 static_cast<unsigned long long>(shared->table.lease_count()),
                 static_cast<unsigned long long>(
                     shared->table.committed_count()),
                 hex16(mc.fingerprint()).c_str());
  }

  if (shared->wake_fd < 0) {
    std::perror("fabric: eventfd");
    return 3;
  }

  int listen_fd = -1;
  if (!options.socket_path.empty()) {
    listen_fd = serve::listen_unix(options.socket_path);
  } else {
    listen_fd = serve::listen_tcp(options.tcp_port);
  }
  if (listen_fd < 0) {
    std::perror("fabric: bind/listen");
    return 3;
  }

  // Accept loop. It also sweeps granted leases for heartbeat silence,
  // at least every kDrainCheck. The thread that commits the last lease
  // or records a fatal error writes `wake_fd`, which ends the loop at
  // once.
  std::vector<std::thread> connections;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(shared->mutex);
      if (shared->table.all_committed()) break;
      const std::vector<std::uint64_t> expired =
          shared->table.expire_stale(Clock::now());
      for (const std::uint64_t id : expired) {
        FABRIC_LOG(options,
                   "lease %llu expired (heartbeat silence); reopening\n",
                   static_cast<unsigned long long>(id));
      }
      if (!expired.empty()) shared->changed.notify_all();
    }
    if (shared->fatal.load()) break;
    if (runtime::drain_requested()) break;
    struct pollfd pfds[2] = {{listen_fd, POLLIN, 0},
                             {shared->wake_fd, POLLIN, 0}};
    const int ready = ::poll(pfds, 2, static_cast<int>(kDrainCheck.count()));
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    if (pfds[1].revents != 0) {
      std::uint64_t count;
      [[maybe_unused]] const ssize_t got =
          ::read(shared->wake_fd, &count, sizeof count);
    }
    if ((pfds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    connections.emplace_back(
        [&, fd] { serve_worker(options, *shared, fd); });
  }
  ::close(listen_fd);
  if (!options.socket_path.empty()) ::unlink(options.socket_path.c_str());
  for (std::thread& connection : connections) connection.join();

  if (shared->fatal.load()) {
    std::fprintf(stderr, "fabric: fatal: %s\n",
                 shared->fatal_message.c_str());
    return 3;
  }
  if (runtime::drain_requested()) {
    std::fprintf(stderr,
                 "fabric: drained with %llu/%llu leases committed; "
                 "relaunch with --resume to finish\n",
                 static_cast<unsigned long long>(
                     shared->table.committed_count()),
                 static_cast<unsigned long long>(
                     shared->table.lease_count()));
    return 130;
  }

  // Reduce: merge every committed shard journal, then resume the
  // merged journal over the full range in-process. Cells lost to
  // journal chaos in a worker re-execute here, so the digest below is
  // the digest an uninterrupted single-process run produces.
  const LeaseTable::Audit audit = shared->table.audit();
  try {
    const std::string merged = workdir + "/merged.journal";
    const runtime::JournalMergeStats stats = runtime::merge_journals(
        shared->table.committed_journals(), merged);
    scenario::CampaignSpec final_spec = options.campaign;
    final_spec.journal = merged;
    final_spec.resume = true;
    final_spec.cell_lo = 0;
    final_spec.cell_hi = ~0ull;
    final_spec.chaos.clear();  // chaos was the workers' burden
    runtime::McConfig final_config =
        scenario::to_mc_config(final_spec, options.scenario);
    const runtime::McRunner runner =
        scenario::make_mc_runner(options.scenario);
    runtime::McExecution exec(final_config, runner);
    runtime::ThreadPool pool(final_config.threads);
    exec.enqueue(pool);
    pool.wait_idle();
    const runtime::McSummary summary = exec.reduce(pool);

    if (!options.quiet) {
      std::fprintf(stderr,
                   "fabric: merged %llu shard journals (%llu records, "
                   "%llu duplicates, %llu corrupt) -> %llu resumed + "
                   "%llu re-executed\n",
                   static_cast<unsigned long long>(stats.inputs),
                   static_cast<unsigned long long>(stats.records_out),
                   static_cast<unsigned long long>(stats.duplicates),
                   static_cast<unsigned long long>(stats.corrupt),
                   static_cast<unsigned long long>(summary.cells_resumed),
                   static_cast<unsigned long long>(summary.cells_executed));
      std::fprintf(stderr,
                   "fabric: audit: %llu leases, %llu grants, %llu "
                   "expiries, %llu duplicates coalesced\n",
                   static_cast<unsigned long long>(audit.leases),
                   static_cast<unsigned long long>(audit.granted),
                   static_cast<unsigned long long>(audit.expired),
                   static_cast<unsigned long long>(audit.coalesced));
    }
    std::printf("digest: %s\n", hex16(summary.digest()).c_str());
    if (!options.json_out.empty()) {
      if (options.json_out == "-") {
        runtime::write_snapshot(std::cout, final_config, summary);
      } else {
        std::ofstream out(options.json_out);
        if (!out) {
          std::fprintf(stderr, "fabric: cannot write '%s'\n",
                       options.json_out.c_str());
          return 3;
        }
        runtime::write_snapshot(out, final_config, summary);
      }
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fabric: %s\n", error.what());
    return 3;
  }
  return 0;
}

}  // namespace vds::fabric
