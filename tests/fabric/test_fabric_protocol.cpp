// Fabric wire protocol: format/parse round-trips for every message
// kind, strictness on malformed documents, and the fingerprint-parity
// property the whole fabric rests on — a config that survives the
// wire builds the identical McConfig fingerprint on the far side.

#include "fabric/protocol.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "runtime/mc_campaign.hpp"
#include "scenario/campaign_spec.hpp"
#include "scenario/json_reader.hpp"
#include "expect_rejects.hpp"

namespace vds::fabric {
namespace {

scenario::JsonValue parse(const std::string& line) {
  return scenario::parse_json(line);
}

TEST(FabricProtocol, Hex16RoundTrip) {
  EXPECT_EQ(hex16(0), "0000000000000000");
  EXPECT_EQ(hex16(0xdeadbeefcafef00dull), "deadbeefcafef00d");
  EXPECT_EQ(parse_hex64("deadbeefcafef00d"), 0xdeadbeefcafef00dull);
  EXPECT_EQ(parse_hex64("0"), 0u);
  EXPECT_REJECTS(parse_hex64(""), std::invalid_argument);
  EXPECT_REJECTS(parse_hex64("DEADBEEF"), std::invalid_argument);  // lowercase
  EXPECT_REJECTS(parse_hex64("12345678901234567"),
                 std::invalid_argument);
  EXPECT_REJECTS(parse_hex64("xyz"), std::invalid_argument);
}

TEST(FabricProtocol, HelloRoundTrip) {
  const std::string line = format_hello(Hello{"worker-7"});
  const auto doc = parse(line);
  ASSERT_EQ(classify(doc), MessageKind::kHello);
  EXPECT_EQ(parse_hello(doc).worker, "worker-7");
}

TEST(FabricProtocol, LeaseRoundTrip) {
  Lease lease;
  lease.lease = 3;
  lease.attempt = 2;
  lease.lo = 1500;
  lease.hi = 2000;
  lease.journal = "/tmp/fab/lease-3-a2.journal";
  const auto doc = parse(format_lease(lease));
  ASSERT_EQ(classify(doc), MessageKind::kLease);
  const Lease got = parse_lease(doc);
  EXPECT_EQ(got.lease, 3u);
  EXPECT_EQ(got.attempt, 2u);
  EXPECT_EQ(got.lo, 1500u);
  EXPECT_EQ(got.hi, 2000u);
  EXPECT_EQ(got.journal, lease.journal);
}

TEST(FabricProtocol, LeaseRejectsEmptyRangeAndZeroAttempt) {
  Lease lease;
  lease.lease = 0;
  lease.attempt = 1;
  lease.lo = 10;
  lease.hi = 10;
  lease.journal = "x";
  EXPECT_THROW(parse_lease(parse(format_lease(lease))),
               std::invalid_argument);
  lease.hi = 20;
  lease.attempt = 0;
  EXPECT_THROW(parse_lease(parse(format_lease(lease))),
               std::invalid_argument);
}

TEST(FabricProtocol, HeartbeatRoundTrip) {
  Heartbeat heartbeat;
  heartbeat.worker = "w";
  heartbeat.lease = 9;
  heartbeat.resolved = 1234;
  const auto doc = parse(format_heartbeat(heartbeat));
  ASSERT_EQ(classify(doc), MessageKind::kHeartbeat);
  const Heartbeat got = parse_heartbeat(doc);
  EXPECT_EQ(got.worker, "w");
  EXPECT_EQ(got.lease, 9u);
  EXPECT_EQ(got.resolved, 1234u);
}

TEST(FabricProtocol, ResultRoundTripsBothStatuses) {
  Result ok;
  ok.worker = "w1";
  ok.lease = 4;
  ok.attempt = 3;
  ok.ok = true;
  ok.digest = 0x0123456789abcdefull;
  ok.cells = 500;
  const auto ok_doc = parse(format_result(ok));
  ASSERT_EQ(classify(ok_doc), MessageKind::kResult);
  const Result got_ok = parse_result(ok_doc);
  EXPECT_TRUE(got_ok.ok);
  EXPECT_EQ(got_ok.digest, ok.digest);
  EXPECT_EQ(got_ok.cells, 500u);
  EXPECT_EQ(got_ok.attempt, 3u);

  Result failed;
  failed.worker = "w2";
  failed.lease = 4;
  failed.attempt = 1;
  failed.ok = false;
  failed.error = "journal append failed";
  const Result got_failed = parse_result(parse(format_result(failed)));
  EXPECT_FALSE(got_failed.ok);
  EXPECT_EQ(got_failed.error, "journal append failed");
}

TEST(FabricProtocol, DoneAndClassifyErrors) {
  EXPECT_EQ(classify(parse(format_done())), MessageKind::kDone);
  EXPECT_REJECTS(classify(parse("{\"no_schema\":1}")),
                 std::invalid_argument);
  EXPECT_REJECTS(classify(parse("{\"schema\":\"vds.bogus.v1\"}")),
                 std::invalid_argument);
  EXPECT_REJECTS(classify(parse("[1,2]")), std::invalid_argument);
}

TEST(FabricProtocol, ConfigRoundTripPreservesFingerprint) {
  Config config;
  config.scenario.rounds = 60;
  config.campaign.replicas = 77;
  config.campaign.grid = {1, 5, 9};
  config.campaign.kinds = {vds::fault::FaultKind::kTransient,
                           vds::fault::FaultKind::kProcessorCrash};
  config.campaign.seed = 1234;
  config.campaign.jitter = false;
  config.campaign.fixed_offset = 0.45;
  config.campaign.cell_timeout = 2.5;
  config.campaign.max_retries = 5;
  config.chaos = "cell.fail=0.01:3";
  config.heartbeat_ms = 250;

  const auto doc = parse(format_config(config));
  ASSERT_EQ(classify(doc), MessageKind::kConfig);
  const Config got = parse_config(doc);
  EXPECT_EQ(got.chaos, config.chaos);
  EXPECT_EQ(got.heartbeat_ms, 250u);
  EXPECT_EQ(got.campaign.replicas, 77u);
  EXPECT_EQ(got.campaign.cell_timeout, 2.5);
  EXPECT_EQ(got.campaign.max_retries, 5u);

  // The property the lease machinery trusts: both ends build the same
  // campaign fingerprint, so shard journals written by the worker are
  // resumable (and mergeable) by the coordinator.
  const runtime::McConfig coordinator_config =
      scenario::to_mc_config(config.campaign, config.scenario);
  const runtime::McConfig worker_config =
      scenario::to_mc_config(got.campaign, got.scenario);
  EXPECT_EQ(coordinator_config.fingerprint(), worker_config.fingerprint());
}

TEST(FabricProtocol, ConfigSurvivesANonDefaultScenario) {
  Config config;
  config.scenario.scheme = core::RecoveryScheme::kRollback;
  config.scenario.alpha = 0.72;
  config.scenario.rounds = 40;
  config.campaign.replicas = 10;
  const Config got = parse_config(parse(format_config(config)));
  const auto a = scenario::to_mc_config(config.campaign, config.scenario);
  const auto b = scenario::to_mc_config(got.campaign, got.scenario);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.round_time, b.round_time);
}

TEST(FabricProtocol, ParseRejectsMissingKeys) {
  EXPECT_THROW(
      parse_lease(parse("{\"schema\":\"vds.fabric_lease.v1\",\"lease\":1}")),
      std::invalid_argument);
  EXPECT_THROW(parse_hello(parse("{\"schema\":\"vds.fabric_hello.v1\"}")),
               std::invalid_argument);
  EXPECT_THROW(
      parse_result(parse(
          "{\"schema\":\"vds.fabric_result.v1\",\"worker\":\"w\","
          "\"lease\":1,\"attempt\":1,\"status\":\"ok\"}")),
      std::invalid_argument);
}

}  // namespace
}  // namespace vds::fabric
