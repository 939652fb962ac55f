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
coordinator kill/--resume.

coordinator rendezvous (one of):
  --socket PATH                  Unix listen socket
  --port N                       TCP listen port on 127.0.0.1

coordinator options:
  --workdir DIR                  assignment log + shard journals [fabric-work]
  --lease-cells N                cells per lease          [cells/16, min 1]
  --heartbeat-ms N               interval workers are told        [500]
  --expiry-ms N                  silence before a lease expires   [5000]
  --backoff-ms N                 reassignment backoff base        [100]
  --backoff-cap-ms N             reassignment backoff cap         [5000]
  --resume                       replay the assignment log, re-issue
                                 only leases without a completion
  --json-out PATH                final vds.mc_summary.v1 ('-' = stdout)
  --quiet                        suppress fabric progress on stderr

worker options:
  --connect PATH                 coordinator's Unix socket
  --port N                       coordinator's TCP port
  --name NAME                    announced worker name     [worker-PID]
  --threads N                    pool width per lease      [hardware]
  --heartbeat-ms N               override the coordinator's interval
                                 (0 disables heartbeats)

engine under test (coordinator only; shipped to workers in the config
handshake):

)";

constexpr const char* kUsageTail = R"(
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

void print_usage(std::FILE* stream) {
  std::fputs(kUsageHead, stream);
  std::fputs(std::string(vds::scenario::scenario_usage()).c_str(), stream);
  std::fputs(std::string(vds::scenario::campaign_usage()).c_str(), stream);
  std::fputs(kUsageTail, stream);
}

int run_fabric(int argc, char** argv) {
  using vds::scenario::CliError;

  enum class Mode { kUnset, kCoordinate, kWorker };
  Mode mode = Mode::kUnset;
  vds::fabric::CoordinatorOptions coord;
  coord.scenario.rounds = 60;  // match vds_mc's default job length
  vds::fabric::WorkerOptions worker;

  vds::scenario::ArgCursor args(argc, argv);
  while (!args.done()) {
    const std::string arg(args.next());
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return 0;
    } else if (arg == "--coordinate") {
      mode = Mode::kCoordinate;
    } else if (arg == "--worker") {
      mode = Mode::kWorker;
    } else if (arg == "--socket") {
      coord.socket_path = std::string(args.value(arg));
    } else if (arg == "--connect") {
      worker.socket_path = std::string(args.value(arg));
    } else if (arg == "--port") {
      const unsigned port = args.value_unsigned(arg);
      if (port == 0 || port > 65535) {
        vds::scenario::bad_value(arg, std::to_string(port),
                                 "a TCP port in 1..65535");
      }
      coord.tcp_port = static_cast<std::uint16_t>(port);
      worker.tcp_port = coord.tcp_port;
    } else if (arg == "--workdir") {
      coord.workdir = std::string(args.value(arg));
    } else if (arg == "--lease-cells") {
      coord.lease_cells = args.value_u64(arg);
    } else if (arg == "--heartbeat-ms") {
      // Shared spelling: coordinator interval or worker override.
      const std::uint64_t ms = args.value_u64(arg);
      coord.heartbeat_ms = ms;
      worker.heartbeat_ms = ms;
    } else if (arg == "--expiry-ms") {
      coord.expiry_ms = args.value_u64(arg);
    } else if (arg == "--backoff-ms") {
      coord.backoff_ms = args.value_u64(arg);
    } else if (arg == "--backoff-cap-ms") {
      coord.backoff_cap_ms = args.value_u64(arg);
    } else if (arg == "--name") {
      worker.name = std::string(args.value(arg));
    } else if (arg == "--json-out") {
      coord.json_out = std::string(args.value(arg));
    } else if (arg == "--quiet") {
      coord.quiet = true;
      worker.quiet = true;
    } else if (vds::scenario::apply_campaign_flag(coord.campaign, arg,
                                                  args)) {
      // campaign grid/execution/robustness flag, shared with vds_mc
    } else if (vds::scenario::apply_scenario_flag(coord.scenario, arg,
                                                  args)) {
      // engine-under-test flag, handled by the shared parser
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      print_usage(stderr);
      return 2;
    }
  }

  if (mode == Mode::kUnset) {
    throw CliError("pick a mode: --coordinate or --worker");
  }

  // A dead peer mid-write must not kill either side; the FdSink
  // surfaces the EPIPE as a structured transport error instead.
  std::signal(SIGPIPE, SIG_IGN);
  vds::runtime::install_drain_signal_handlers();

  if (mode == Mode::kWorker) {
    if (worker.socket_path.empty() && worker.tcp_port == 0) {
      throw CliError("--worker needs --connect PATH or --port N");
    }
    worker.threads = coord.campaign.threads;  // --threads, shared parser
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
  if (coord.socket_path.empty() && coord.tcp_port == 0) {
    throw CliError("--coordinate needs --socket PATH or --port N");
  }
  if (coord.workdir.empty()) coord.workdir = "fabric-work";
  if (coord.expiry_ms == 0) throw CliError("--expiry-ms must be > 0");
  if (coord.backoff_cap_ms < coord.backoff_ms) {
    throw CliError("--backoff-cap-ms must be >= --backoff-ms");
  }
  // vds_fabric --resume means "replay the assignment log": lift it out
  // of the campaign spec (where the shared parser routed it) so the
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
