#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/mc_campaign.hpp"
#include "scenario/campaign_spec.hpp"
#include "scenario/json_reader.hpp"
#include "serve/protocol.hpp"

namespace vds::serve {
namespace {

/// Thread-safe in-memory sink; the dispatcher and the submitting
/// thread both write into it.
class CollectSink : public ResponseSink {
 public:
  void write_line(const std::string& line) override {
    std::lock_guard<std::mutex> lock(mutex_);
    lines_.push_back(line);
  }
  [[nodiscard]] std::vector<std::string> lines() {
    std::lock_guard<std::mutex> lock(mutex_);
    return lines_;
  }

 private:
  std::mutex mutex_;
  std::vector<std::string> lines_;
};

std::string campaign_request(const std::string& id, std::uint64_t seed,
                             std::uint64_t replicas,
                             double deadline_ms = 0.0) {
  std::ostringstream os;
  os << R"({"schema": "vds.serve_request.v1", "id": ")" << id
     << R"(", "type": "campaign")";
  if (deadline_ms > 0.0) os << ", \"deadline_ms\": " << deadline_ms;
  os << R"(, "scenario": {"schema": "vds.scenario.v1", "scheme": "det",)"
     << R"( "seed": )" << seed << "}"
     << R"(, "campaign": {"replicas": )" << replicas
     << R"(, "rounds": [1, 3], "seed": )" << seed << "}}";
  return os.str();
}

/// The digest the one-shot path (vds_mc) produces for the same
/// request line — built through the identical campaign_spec layer.
std::string one_shot_digest(const std::string& request_line) {
  const ServeRequest request = parse_request(request_line);
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

const scenario::JsonValue* find_line_for(
    const std::vector<scenario::JsonValue>& docs, const std::string& id) {
  for (const scenario::JsonValue& doc : docs) {
    const scenario::JsonValue* got = doc.find("id");
    if (got != nullptr && got->text == id) return &doc;
  }
  return nullptr;
}

std::vector<scenario::JsonValue> parse_lines(
    const std::vector<std::string>& lines) {
  std::vector<scenario::JsonValue> docs;
  docs.reserve(lines.size());
  for (const std::string& line : lines) {
    docs.push_back(scenario::parse_json(line));
  }
  return docs;
}

TEST(ServeServer, ConcurrentClientsDigestMatchOneShotRuns) {
  ServerOptions options;
  options.threads = 4;
  Server server(options);

  // Four clients with distinct scenarios submit concurrently; batching
  // may coalesce any subset of their cells onto the shared pool.
  constexpr int kClients = 4;
  std::vector<std::shared_ptr<CollectSink>> sinks;
  std::vector<std::string> requests;
  for (int k = 0; k < kClients; ++k) {
    sinks.push_back(std::make_shared<CollectSink>());
    requests.push_back(campaign_request("client-" + std::to_string(k),
                                        /*seed=*/100 + k, /*replicas=*/20));
  }
  std::vector<std::thread> clients;
  for (int k = 0; k < kClients; ++k) {
    clients.emplace_back(
        [&server, &requests, &sinks, k] { server.submit(requests[k], sinks[k]); });
  }
  for (std::thread& client : clients) client.join();
  server.finish();

  for (int k = 0; k < kClients; ++k) {
    const std::vector<std::string> lines = sinks[k]->lines();
    ASSERT_EQ(lines.size(), 1u) << "client " << k;
    const scenario::JsonValue doc = scenario::parse_json(lines[0]);
    EXPECT_EQ(doc.find("schema")->as_string("schema"),
              "vds.serve_response.v1");
    EXPECT_EQ(doc.find("status")->as_string("status"), "ok");
    const scenario::JsonValue* body = doc.find("body");
    ASSERT_NE(body, nullptr);
    const scenario::JsonValue* summary = body->find("summary");
    ASSERT_NE(summary, nullptr);
    // The acceptance oracle: a served campaign digest equals the
    // one-shot campaign digest, so the summaries are bitwise equal.
    EXPECT_EQ(summary->find("digest")->as_string("digest"),
              one_shot_digest(requests[k]))
        << "client " << k;
  }
}

TEST(ServeServer, DigestIndependentOfServerThreadCount) {
  const std::string request = campaign_request("t", /*seed=*/7,
                                               /*replicas=*/25);
  std::string digests[2];
  const unsigned thread_counts[2] = {1, 4};
  for (int k = 0; k < 2; ++k) {
    ServerOptions options;
    options.threads = thread_counts[k];
    Server server(options);
    auto sink = std::make_shared<CollectSink>();
    server.submit(request, sink);
    server.finish();
    const std::vector<std::string> lines = sink->lines();
    ASSERT_EQ(lines.size(), 1u);
    const scenario::JsonValue doc = scenario::parse_json(lines[0]);
    digests[k] = doc.find("body")->find("summary")->find("digest")->text;
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], one_shot_digest(request));
}

TEST(ServeServer, QueueFullRejectionIsImmediateAndStructured) {
  ServerOptions options;
  options.threads = 2;
  options.queue_limit = 1;  // one outstanding request, period
  options.batch_max = 1;
  Server server(options);
  auto sink = std::make_shared<CollectSink>();

  // Big enough that it is still outstanding when the next submit lands.
  server.submit(campaign_request("slow", 1, /*replicas=*/400), sink);
  server.submit(campaign_request("reject-me", 2, /*replicas=*/1), sink);

  // The rejection is synchronous: it is on the sink before finish().
  {
    const std::vector<scenario::JsonValue> docs = parse_lines(sink->lines());
    const scenario::JsonValue* rejected = find_line_for(docs, "reject-me");
    ASSERT_NE(rejected, nullptr);
    EXPECT_EQ(rejected->find("schema")->as_string("schema"),
              "vds.serve_error.v1");
    EXPECT_EQ(rejected->find("code")->as_string("code"), "queue_full");
  }
  server.finish();

  const std::vector<scenario::JsonValue> docs = parse_lines(sink->lines());
  ASSERT_EQ(docs.size(), 2u);  // every request answered exactly once
  const scenario::JsonValue* slow = find_line_for(docs, "slow");
  ASSERT_NE(slow, nullptr);
  EXPECT_EQ(slow->find("schema")->as_string("schema"),
            "vds.serve_response.v1");

  const StatsSnapshot stats = server.stats_snapshot();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.outstanding, 0u);
}

TEST(ServeServer, PastDeadlineRequestsGetStructuredErrors) {
  ServerOptions options;
  options.threads = 2;
  options.batch_max = 1;  // the slow request dispatches alone
  Server server(options);
  auto sink = std::make_shared<CollectSink>();

  // "late" is admitted immediately but cannot dispatch until "slow"
  // finishes (batch_max = 1), which takes far longer than 1 ms.
  server.submit(campaign_request("slow", 1, /*replicas=*/400), sink);
  server.submit(
      campaign_request("late", 2, /*replicas=*/4, /*deadline_ms=*/1.0),
      sink);
  server.finish();

  const std::vector<scenario::JsonValue> docs = parse_lines(sink->lines());
  ASSERT_EQ(docs.size(), 2u);
  const scenario::JsonValue* late = find_line_for(docs, "late");
  ASSERT_NE(late, nullptr);
  const std::string schema = late->find("schema")->as_string("schema");
  if (schema == "vds.serve_error.v1") {
    // Expired while queued: rejected before any cell ran.
    EXPECT_EQ(late->find("code")->as_string("code"), "deadline");
  } else {
    // Dispatched just inside the deadline: the campaign must have been
    // cut short rather than run to completion.
    EXPECT_EQ(schema, "vds.serve_response.v1");
    EXPECT_EQ(late->find("status")->as_string("status"), "partial");
    const scenario::JsonValue* summary =
        late->find("body")->find("summary");
    EXPECT_TRUE(summary->find("deadline_exceeded") != nullptr ||
                summary->find("cells_skipped")->as_u64("cells_skipped") >
                    0u);
  }
}

TEST(ServeServer, DrainFailsQueuedRequestsAndAnswersInFlight) {
  runtime::clear_drain_request();
  ServerOptions options;
  options.threads = 2;
  options.batch_max = 1;
  Server server(options);
  auto sink = std::make_shared<CollectSink>();

  server.submit(campaign_request("inflight", 1, /*replicas=*/400), sink);
  server.submit(campaign_request("queued", 2, /*replicas=*/1), sink);

  // Wait until "inflight" is actually in service and "queued" is the
  // only queued request, then pull the plug.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (true) {
    const StatsSnapshot stats = server.stats_snapshot();
    if (stats.outstanding == 2 && stats.queue_depth == 1) break;
    if (stats.completed >= 1) break;  // too late to observe; still fine
    ASSERT_LT(std::chrono::steady_clock::now(), give_up);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  runtime::request_drain();

  // New submissions are rejected with code=drain right away.
  server.submit(campaign_request("after-drain", 3, /*replicas=*/1), sink);
  server.finish();
  runtime::clear_drain_request();

  const std::vector<scenario::JsonValue> docs = parse_lines(sink->lines());
  ASSERT_EQ(docs.size(), 3u);

  const scenario::JsonValue* after = find_line_for(docs, "after-drain");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->find("schema")->as_string("schema"),
            "vds.serve_error.v1");
  EXPECT_EQ(after->find("code")->as_string("code"), "drain");

  // Both admitted requests were answered: no silent drops. The
  // in-flight one finished with a full (non-partial) summary unless
  // the drain landed before its dispatch.
  const scenario::JsonValue* inflight = find_line_for(docs, "inflight");
  const scenario::JsonValue* queued = find_line_for(docs, "queued");
  ASSERT_NE(inflight, nullptr);
  ASSERT_NE(queued, nullptr);
  if (inflight->find("schema")->as_string("schema") ==
      "vds.serve_response.v1") {
    EXPECT_EQ(inflight->find("status")->as_string("status"), "ok");
    EXPECT_EQ(
        inflight->find("body")->find("summary")->find("digest")->text,
        one_shot_digest(campaign_request("inflight", 1, 400)));
  }
  const std::string queued_schema =
      queued->find("schema")->as_string("schema");
  if (queued_schema == "vds.serve_error.v1") {
    EXPECT_EQ(queued->find("code")->as_string("code"), "drain");
  } else {
    EXPECT_EQ(queued_schema, "vds.serve_response.v1");  // raced the flag
  }
}

TEST(ServeServer, BadRequestLinesGetErrorsNotSilence) {
  Server server(ServerOptions{});
  auto sink = std::make_shared<CollectSink>();
  server.submit("this is not json", sink);
  server.submit(R"({"id": "r7", "type": "dance"})", sink);
  server.finish();

  const std::vector<std::string> lines = sink->lines();
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    const scenario::JsonValue doc = scenario::parse_json(line);
    EXPECT_EQ(doc.find("schema")->as_string("schema"),
              "vds.serve_error.v1");
    EXPECT_EQ(doc.find("code")->as_string("code"), "bad_request");
  }
  // The second line's id was extractable and is echoed back.
  EXPECT_EQ(scenario::parse_json(lines[1]).find("id")->text, "r7");

  const StatsSnapshot stats = server.stats_snapshot();
  EXPECT_EQ(stats.bad_requests, 2u);
  EXPECT_EQ(stats.accepted, 0u);
}

TEST(ServeServer, StatsRequestAnswersSynchronously) {
  ServerOptions options;
  options.threads = 2;
  options.batch_max = 1;
  Server server(options);
  auto sink = std::make_shared<CollectSink>();
  server.submit(campaign_request("work", 5, /*replicas=*/200), sink);

  auto stats_sink = std::make_shared<CollectSink>();
  server.submit(
      R"({"schema": "vds.serve_request.v1", "id": "h1", "type": "stats"})",
      stats_sink);
  // Answered before the campaign completes or the server drains.
  ASSERT_EQ(stats_sink->lines().size(), 1u);
  const scenario::JsonValue doc =
      scenario::parse_json(stats_sink->lines()[0]);
  EXPECT_EQ(doc.find("schema")->as_string("schema"), "vds.serve_stats.v1");
  EXPECT_EQ(doc.find("id")->as_string("id"), "h1");
  EXPECT_EQ(doc.find("accepted")->as_u64("accepted"), 1u);

  server.finish();
  const StatsSnapshot after = server.stats_snapshot();
  EXPECT_EQ(after.completed, 1u);
  EXPECT_EQ(after.queue_count, 1u);
  EXPECT_EQ(after.service_count, 1u);
  EXPECT_GT(after.service_mean, 0.0);
}

TEST(ServeServer, LatencyPercentilesFitInsideTheSessionWallTime) {
  // A request cannot wait or run longer than the whole session.
  ServerOptions options;
  options.threads = 2;
  const auto start = std::chrono::steady_clock::now();
  Server server(options);
  auto sink = std::make_shared<CollectSink>();
  constexpr int kRequests = 30;
  for (int k = 0; k < kRequests; ++k) {
    server.submit(campaign_request(std::to_string(k), k + 1,
                                   /*replicas=*/1),
                  sink);
  }
  server.finish();
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  const StatsSnapshot stats = server.stats_snapshot();
  ASSERT_EQ(stats.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_LE(stats.queue_p50, wall_ms);
  EXPECT_LE(stats.queue_p99, wall_ms);
  EXPECT_LE(stats.service_p50, wall_ms);
  EXPECT_LE(stats.service_p99, wall_ms);
  EXPECT_LE(stats.service_p50, stats.service_p99);
}

TEST(ServeServer, RunRequestsShareThePoolWithCampaigns) {
  ServerOptions options;
  options.threads = 2;
  Server server(options);
  auto sink = std::make_shared<CollectSink>();
  server.submit(campaign_request("camp", 11, /*replicas=*/10), sink);
  server.submit(
      R"({"schema": "vds.serve_request.v1", "id": "single", "type": "run",)"
      R"( "scenario": {"schema": "vds.scenario.v1", "scheme": "det",)"
      R"( "seed": 11, "rounds": 80}})",
      sink);
  server.finish();

  const std::vector<scenario::JsonValue> docs = parse_lines(sink->lines());
  ASSERT_EQ(docs.size(), 2u);
  const scenario::JsonValue* run = find_line_for(docs, "single");
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->find("schema")->as_string("schema"),
            "vds.serve_response.v1");
  const scenario::JsonValue* body = run->find("body");
  ASSERT_NE(body, nullptr);
  EXPECT_EQ(body->find("schema")->as_string("schema"), "vds.run_report.v1");
  // Deterministic single-run body: same seed, same report, every time.
  const scenario::JsonValue* report = body->find("report");
  ASSERT_NE(report, nullptr);
  EXPECT_NE(report->find("completed"), nullptr);

  const scenario::JsonValue* camp = find_line_for(docs, "camp");
  ASSERT_NE(camp, nullptr);
  EXPECT_EQ(camp->find("body")->find("summary")->find("digest")->text,
            one_shot_digest(campaign_request("camp", 11, 10)));
}

}  // namespace
}  // namespace vds::serve
