// E22 (extension) -- request latency and throughput of the vds_serve
// campaign server. A fixed pool of identical campaign requests is
// shared among an increasing number of closed-loop clients: each
// client keeps one request in flight and sends the next only after
// the response to the last one arrived, so the offered concurrency is
// the client count. For each level the harness reports queue-wait and
// service-time p50/p99 (from the server's own stats endpoint
// machinery) and completed requests per second. Alongside the latency
// table, the digest of every response is checked against the one-shot
// campaign result: load changes *when* a request finishes, never
// *what* it computes.

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "runtime/mc_campaign.hpp"
#include "scenario/campaign_spec.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

using namespace vds;

namespace {

/// One closed-loop client's connection: counts the responses, checks
/// each one's digest against the one-shot result, and lets the client
/// wait for its response before it sends the next request.
class ClientSink : public serve::ResponseSink {
 public:
  explicit ClientSink(std::string expected) : expected_(std::move(expected)) {}

  void write_line(const std::string& line) override {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++lines_;
      const std::size_t at = line.find("\"digest\": \"");
      if (at == std::string::npos ||
          line.compare(at + 11, 16, expected_) != 0) {
        ++mismatches_;  // an error response or a different result
      }
    }
    cv_.notify_one();
  }

  /// Blocks until `n` responses have arrived; false after a minute
  /// without them.
  bool wait_for(std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::minutes(1),
                        [&] { return lines_ >= n; });
  }

  [[nodiscard]] std::size_t lines() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return lines_;
  }
  [[nodiscard]] std::size_t mismatches() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return mismatches_;
  }

 private:
  const std::string expected_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t lines_ = 0;       // guarded
  std::size_t mismatches_ = 0;  // guarded
};

std::string campaign_request(int id) {
  return R"({"schema": "vds.serve_request.v1", "id": "r)" +
         std::to_string(id) +
         R"(", "type": "campaign", "scenario": {"schema": )"
         R"("vds.scenario.v1", "scheme": "det"}, "campaign": )"
         R"({"replicas": 20, "rounds": [1, 5, 10], "seed": 11}})";
}

std::string one_shot_digest() {
  const serve::ServeRequest request =
      serve::parse_request(campaign_request(0));
  runtime::McConfig config =
      scenario::to_mc_config(request.campaign, request.scenario);
  config.threads = 2;
  const runtime::McSummary summary = runtime::run_mc_campaign(
      config, scenario::make_mc_runner(request.scenario));
  char hex[20];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(summary.digest()));
  return hex;
}

}  // namespace

int main() {
  bench::banner("E22", "vds_serve latency/throughput vs client concurrency");
  std::printf(
      "\n%u hardware threads; 64 identical campaign requests per level,\n"
      "shared among closed-loop clients (one request in flight each)\n",
      std::thread::hardware_concurrency());

  const std::string expected = one_shot_digest();
  constexpr int kRequests = 64;

  std::printf("\n%12s %10s %10s %10s %10s %10s %12s\n", "clients",
              "queue_p50", "queue_p99", "svc_p50", "svc_p99", "req/s",
              "digests");
  for (const int clients : {1, 2, 4, 8, 16}) {
    serve::ServerOptions options;
    options.queue_limit = kRequests + clients;  // admission never trips
    serve::Server server(options);
    std::vector<std::shared_ptr<ClientSink>> sinks;
    for (int c = 0; c < clients; ++c) {
      sinks.push_back(std::make_shared<ClientSink>(expected));
    }

    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      auto sink = sinks[std::size_t(c)];
      workers.emplace_back([&server, sink, c, clients] {
        std::size_t sent = 0;
        for (int r = c; r < kRequests; r += clients) {
          server.submit(campaign_request(r), sink);
          if (!sink->wait_for(++sent)) return;  // stalled: shows as MISMATCH
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    server.finish();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    const serve::StatsSnapshot stats = server.stats_snapshot();
    std::size_t lines = 0;
    std::size_t mismatches = 0;
    for (const auto& sink : sinks) {
      lines += sink->lines();
      mismatches += sink->mismatches();
    }
    const bool all_ok = lines == kRequests && mismatches == 0;
    std::printf("%12d %9.2fms %9.2fms %9.2fms %9.2fms %10.1f %12s\n",
                clients, stats.queue_p50, stats.queue_p99, stats.service_p50,
                stats.service_p99,
                static_cast<double>(stats.completed) / elapsed,
                all_ok ? "all match" : "MISMATCH");
  }

  bench::note("each client waits for its response before the next "
              "request, so at N clients at most N requests queue: queue "
              "wait grows with the client count. The digest column must "
              "read 'all match' at every level -- load never perturbs "
              "results.");
  return 0;
}
