// vds_fabric -- fault-tolerant distributed campaign fabric.
//
//   # coordinator: shard a campaign into cell-range leases
//   vds_fabric --coordinate --socket /tmp/fabric.sock --workdir /tmp/fab
//              --replicas 2000 --scheme det --lease-cells 500
//
//   # workers (any number, any time): dial in and execute leases
//   vds_fabric --worker --connect /tmp/fabric.sock --threads 4
//
// The coordinator cuts the (kind x round x replica) cell space into
// half-open ranges, leases them to workers over the vds_serve
// newline-JSON transports, and merges the returned shard journals into
// the exact digest a single-process vds_mc run produces. Liveness is
// heartbeat-based: a silent worker's lease expires and is re-issued
// with capped exponential backoff; a late result from the presumed-dead
// worker is verified against the committed fingerprint and coalesced,
// never double-counted. Every grant/completion/expiry is written to a
// CRC-framed assignment log BEFORE it takes effect, so a SIGKILLed
// coordinator relaunched with --resume replays committed leases and
// re-issues only the open ones.

#include <csignal>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "fabric/coordinator.hpp"
#include "fabric/worker.hpp"
#include "runtime/mc_campaign.hpp"
#include "scenario/campaign_spec.hpp"
#include "scenario/cli.hpp"

namespace {

constexpr const char* kUsageHead = R"(usage: vds_fabric --coordinate [options]
       vds_fabric --worker --connect PATH [options]

Distributed Monte Carlo campaign: a coordinator leases cell ranges to
worker processes and merges their journals into the exact digest of a
single-process vds_mc run — across worker crashes, lease expiries and
coordinator kill/--resume. The engine and campaign flags matter only
on the coordinator, which ships them to workers in the config
handshake; a worker needs the coordinator's address.
)";

constexpr const char* kUsageTail = R"(
On the coordinator, the campaign's resume flag replays the assignment
log and re-issues only leases without a completion.

--target-ci is rejected: adaptive stopping decisions are per-stratum
pure functions of canonically-ordered results, which arbitrary lease
ranges cannot reproduce shard-locally. Run vds_mc for adaptive
campaigns.

SIGINT/SIGTERM drain gracefully: the coordinator stops granting and
exits 130 with a resumable assignment log; a worker reports its
in-flight lease failed (so it reopens) and exits 130.

exit codes: 0 success; 2 usage/parse error; 3 runtime failure
(including digest conflict); 130 signal drain.
)";

/// The coordinator's options bind straight to the flag table (their
/// defaults are the ones --help shows); the rest are mode and worker
/// flags.
struct FabricFlags : vds::fabric::CoordinatorOptions {
  bool coordinate = false;
  bool worker = false;
  std::string connect;
  std::uint64_t port = 0;
  std::string name;
};

using F = FabricFlags;

const vds::scenario::Field<FabricFlags> kFabricFlags[] = {
    {"--coordinate", "", "run the coordinator", &F::coordinate},
    {"--worker", "", "run a worker", &F::worker},
    {"--socket", "PATH", "coordinator: Unix listen socket",
     &F::socket_path},
    {"--connect", "PATH", "worker: the coordinator's Unix socket",
     &F::connect},
    {"--port", "N",
     "TCP port on 127.0.0.1 (coordinator: listen;\nworker: dial)", &F::port,
     "", "", {"a port in 1..65535", 1, 65535}},
    {"--workdir", "DIR", "coordinator: assignment log + shard journals",
     &F::workdir},
    {"--lease-cells", "N", "cells per lease (0 = cells/16, min 1)",
     &F::lease_cells},
    {"--heartbeat-ms", "N",
     "heartbeat interval workers are told; on a\nworker, overrides it "
     "(0 disables heartbeats)",
     &F::heartbeat_ms},
    {"--expiry-ms", "N", "silence before a lease expires", &F::expiry_ms},
    {"--backoff-ms", "N", "reassignment backoff base", &F::backoff_ms},
    {"--backoff-cap-ms", "N", "reassignment backoff cap",
     &F::backoff_cap_ms},
    {"--name", "NAME", "worker: announced name (default worker-PID)",
     &F::name},
    {"--json-out", "PATH", "final vds.mc_summary.v1 ('-' = stdout)",
     &F::json_out},
    {"--quiet", "", "suppress fabric progress on stderr", &F::quiet},
};

int run_fabric(int argc, char** argv) {
  using vds::scenario::CliError;

  FabricFlags flags;
  vds::fabric::CoordinatorOptions& coord = flags;
  coord.scenario.rounds = 60;  // match vds_mc's default job length
  coord.workdir = "fabric-work";

  vds::scenario::CommandLine cli(kUsageHead, kUsageTail);
  cli.add("engine under test", vds::scenario::scenario_fields(),
          coord.scenario)
      .add("campaign", vds::scenario::campaign_fields(), coord.campaign)
      .add("fabric", kFabricFlags, flags);
  if (!cli.parse(argc, argv)) return 0;

  if (flags.coordinate == flags.worker) {
    throw CliError("pick a mode: --coordinate or --worker");
  }
  const auto port = static_cast<std::uint16_t>(flags.port);

  // A dead peer mid-write must not kill either side; the FdSink
  // surfaces the EPIPE as a structured transport error instead.
  std::signal(SIGPIPE, SIG_IGN);
  vds::runtime::install_drain_signal_handlers();

  if (flags.worker) {
    if (flags.connect.empty() && port == 0) {
      throw CliError("--worker needs --connect PATH or --port N");
    }
    vds::fabric::WorkerOptions worker;
    worker.socket_path = flags.connect;
    worker.tcp_port = port;
    worker.name = flags.name;
    worker.threads = coord.campaign.threads;  // the campaign --threads
    if (cli.seen("--heartbeat-ms")) worker.heartbeat_ms = flags.heartbeat_ms;
    worker.quiet = flags.quiet;
    return vds::fabric::run_worker(worker);
  }

  coord.scenario.validate();
  if (coord.campaign.target_ci > 0.0) {
    // Stopping decisions are pure functions of canonically-ordered
    // per-stratum results; a lease sees only its own range, so shards
    // could stop at conflicting points. Refuse rather than drift.
    throw CliError(
        "--target-ci is not supported in fabric mode; run vds_mc");
  }
  if (coord.campaign.max_replicas > 0) {
    throw CliError("--max-replicas requires --target-ci");
  }
  if (!coord.campaign.journal.empty()) {
    throw CliError("--journal is per-lease in fabric mode; use --workdir");
  }
  if (coord.campaign.cell_lo != 0 || coord.campaign.cell_hi != ~0ull) {
    throw CliError("--cell-range is owned by the lease table in fabric "
                   "mode");
  }
  coord.tcp_port = port;
  if (coord.socket_path.empty() && port == 0) {
    throw CliError("--coordinate needs --socket PATH or --port N");
  }
  if (coord.workdir.empty()) coord.workdir = "fabric-work";
  if (coord.expiry_ms == 0) throw CliError("--expiry-ms must be > 0");
  if (coord.backoff_cap_ms < coord.backoff_ms) {
    throw CliError("--backoff-cap-ms must be >= --backoff-ms");
  }
  // vds_fabric --resume means "replay the assignment log": lift it out
  // of the campaign spec (where the campaign table routed it) so the
  // per-lease worker configs never resume a shard journal.
  coord.resume = coord.campaign.resume;
  coord.campaign.resume = false;
  return vds::fabric::run_coordinator(coord);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_fabric(argc, argv);
  } catch (const vds::scenario::CliError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 3;
  }
}
