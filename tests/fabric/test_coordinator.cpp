// The fabric coordinator in-process: run_coordinator and two run_worker
// threads over a Unix socket. A campaign whose last lease one worker
// commits while the other idles ends with every side at exit 0; a
// lease whose holder hangs up goes to an idle worker after its
// backoff; either way the digest is the single-process McExecution
// digest. No assertion reads the wall clock.

#include "fabric/coordinator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "fabric/protocol.hpp"
#include "fabric/worker.hpp"
#include "runtime/journal.hpp"
#include "runtime/mc_campaign.hpp"
#include "runtime/thread_pool.hpp"
#include "scenario/json_reader.hpp"
#include "serve/transport.hpp"

namespace vds::fabric {
namespace {

namespace fs = std::filesystem;

class FabricCoordinator : public ::testing::Test {
 protected:
  void SetUp() override {
    std::signal(SIGPIPE, SIG_IGN);  // as vds_fabric does
    char pattern[] = "/tmp/vds_coordinator_XXXXXX";
    ASSERT_NE(::mkdtemp(pattern), nullptr);
    dir_ = pattern;
    options_.scenario.rounds = 60;
    options_.campaign.replicas = 60;  // 60 x 5 detection rounds x 4 kinds
    options_.campaign.seed = 11;
    options_.campaign.threads = 2;
    options_.socket_path = dir_ + "/f.sock";
    options_.workdir = dir_ + "/work";
    options_.json_out = dir_ + "/summary.json";
    options_.lease_cells = 100;
    options_.quiet = true;
  }
  void TearDown() override {
    for (std::thread& thread : threads_) thread.join();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// Starts the coordinator and waits for its socket, which exists
  /// only once it listens.
  void start_coordinator() {
    threads_.emplace_back([this] { coordinator_rc_ = run_coordinator(options_); });
    while (!fs::exists(options_.socket_path)) {
      ASSERT_EQ(coordinator_rc_, -1) << "coordinator exited before listening";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  void start_workers(int count) {
    worker_rc_.assign(count, -1);
    for (int w = 0; w < count; ++w) {
      WorkerOptions options;  // both announce worker-<pid>; names only log
      options.socket_path = options_.socket_path;
      options.threads = 1;
      options.quiet = true;
      threads_.emplace_back(
          [this, w, options] { worker_rc_[w] = run_worker(options); });
    }
  }

  void join() {
    for (std::thread& thread : threads_) thread.join();
    threads_.clear();
  }

  std::uint64_t reference_digest() const {
    const runtime::McConfig config =
        scenario::to_mc_config(options_.campaign, options_.scenario);
    runtime::McExecution exec(config,
                              scenario::make_mc_runner(options_.scenario));
    runtime::ThreadPool pool(config.threads);
    exec.enqueue(pool);
    pool.wait_idle();
    return exec.reduce(pool).digest();
  }

  std::uint64_t campaign_digest() const {
    std::ifstream in(options_.json_out);
    std::stringstream text;
    text << in.rdbuf();
    const std::string body = text.str();
    const std::string key = "\"digest\": \"";
    const std::size_t at = body.find(key);
    EXPECT_NE(at, std::string::npos) << body;
    if (at == std::string::npos) return 0;
    return parse_hex64(body.substr(at + key.size(), 16));
  }

  /// Lease events of the assignment log, file order.
  std::vector<runtime::JournalRecord> lease_log() const {
    return runtime::Journal::inspect(options_.workdir + "/assignment.journal")
        .leases;
  }

  std::string dir_;
  CoordinatorOptions options_;
  std::vector<std::thread> threads_;
  std::atomic<int> coordinator_rc_{-1};  // -1 while running
  std::vector<int> worker_rc_;
};

TEST_F(FabricCoordinator, LastCommitEndsTheCampaign) {
  // 1 200 cells in 12 leases of 100 for 2 workers: one worker idles
  // while the other commits the last lease.
  start_coordinator();
  start_workers(2);
  join();
  EXPECT_EQ(coordinator_rc_, 0);
  EXPECT_EQ(worker_rc_, (std::vector<int>{0, 0}));
  EXPECT_EQ(campaign_digest(), reference_digest());

  std::uint64_t completed = 0;
  for (const runtime::JournalRecord& event : lease_log()) {
    completed += event.lease_event == runtime::LeaseEvent::kCompleted;
  }
  EXPECT_EQ(completed, 12u);
}

TEST_F(FabricCoordinator, HungUpLeaseGoesToTheIdleWorker) {
  options_.expiry_ms = 600'000;  // only the hang-up may reopen the lease
  start_coordinator();

  // A raw client takes the first lease and holds it silently.
  const int fd = serve::connect_unix(options_.socket_path);
  ASSERT_GE(fd, 0);
  serve::FdSink sink(fd, /*owns_fd=*/false);
  serve::LineReader reader(fd);
  sink.write_line(format_hello(Hello{"raw"}));
  std::string line;
  ASSERT_EQ(reader.next(line), serve::LineReader::Status::kLine);  // config
  ASSERT_EQ(reader.next(line), serve::LineReader::Status::kLine);
  const Lease held = parse_lease(scenario::parse_json(line));
  EXPECT_EQ(held.attempt, 1u);

  // The real workers commit the other 11 leases and go idle.
  start_workers(2);
  for (;;) {
    std::uint64_t completed = 0;
    for (const runtime::JournalRecord& event : lease_log()) {
      completed += event.lease_event == runtime::LeaseEvent::kCompleted;
    }
    if (completed == 11) break;
    ASSERT_EQ(coordinator_rc_, -1) << "coordinator exited early";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::close(fd);  // hang up holding the lease
  join();

  EXPECT_EQ(coordinator_rc_, 0);
  EXPECT_EQ(worker_rc_, (std::vector<int>{0, 0}));
  EXPECT_EQ(campaign_digest(), reference_digest());

  // The held lease reopened and a real worker committed attempt 2.
  bool expired = false;
  bool regranted = false;
  for (const runtime::JournalRecord& event : lease_log()) {
    if (event.index != held.lease) continue;
    expired |= event.lease_event == runtime::LeaseEvent::kExpired;
    regranted |= event.lease_event == runtime::LeaseEvent::kCompleted &&
                 event.lease_attempt == 2;
  }
  EXPECT_TRUE(expired);
  EXPECT_TRUE(regranted);
}

}  // namespace
}  // namespace vds::fabric
