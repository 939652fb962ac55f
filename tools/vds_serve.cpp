// vds_serve -- long-lived campaign server.
//
//   vds_serve --threads 8 --queue-limit 64 < requests.ndjson
//   vds_serve --unix /tmp/vds.sock
//   vds_serve --tcp 7700
//
// Accepts newline-delimited vds.serve_request.v1 lines (stdin by
// default, or any number of concurrent Unix/TCP connections), runs
// them on one persistent warm worker pool, and answers each with a
// single vds.serve_response.v1 / vds.serve_error.v1 / vds.serve_stats.v1
// line. Campaign bodies are bitwise-identical to what `vds_mc
// --json-out` writes for the same scenario; run bodies match
// `vds_cli --json`.
//
// Admission control is explicit: past --queue-limit outstanding
// requests a submission is rejected immediately with code=queue_full.
// Per-request deadlines (deadline_ms, measured from admission) clamp
// the cell watchdog and skip undispatched cells -> status=partial.
// SIGINT/SIGTERM drain: the batch in flight finishes, everything
// still queued is answered with code=drain, and the exit code is 130.

#include <csignal>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "runtime/mc_campaign.hpp"
#include "scenario/cli.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"

namespace {

constexpr const char* kUsageHead = R"(usage: vds_serve [options]

Serves newline-delimited vds.serve_request.v1 lines from one transport:
stdin (the default), a Unix stream socket or a TCP port.
)";

constexpr const char* kUsageTail = R"(
protocol: one vds.serve_request.v1 JSON object per line; see
docs/SCHEMAS.md section 7. Every request line is answered with exactly
one response line -- results, a structured vds.serve_error.v1
(bad_request, queue_full, deadline, drain, internal), or a
vds.serve_stats.v1 health snapshot. Requests are never silently
dropped.

SIGINT/SIGTERM drain gracefully: in-flight requests finish and are
answered, queued requests fail with code=drain, then the server exits.

exit codes: 0 input closed after all requests answered; 2 usage/parse
error; 3 runtime failure; 130 signal drain.
)";

/// The server's options bind straight to the flag table; the rest
/// pick the transport.
struct ServeFlags : vds::serve::ServerOptions {
  bool stdio = false;
  std::string unix_path;
  std::uint64_t tcp_port = 0;
};

constexpr vds::scenario::Range kRequestCount{"a positive request count", 1};

const vds::scenario::Field<ServeFlags> kServeFlags[] = {
    {"--stdio", "", "requests on stdin, responses on stdout",
     &ServeFlags::stdio},
    {"--unix", "PATH", "listen on a Unix stream socket",
     &ServeFlags::unix_path, "", "", {"a socket path", 1}},
    {"--tcp", "PORT", "listen on 127.0.0.1:PORT", &ServeFlags::tcp_port, "",
     "", {"a port in 1..65535", 1, 65535}},
    {"--threads", "N",
     "worker threads shared by all requests\n(0 = hardware)",
     &ServeFlags::threads},
    {"--queue-limit", "N",
     "max outstanding (queued + in-service)\nrequests before "
     "code=queue_full\nrejections",
     &ServeFlags::queue_limit, "", "", kRequestCount},
    {"--batch-max", "N", "requests coalesced onto the pool per\ndispatch",
     &ServeFlags::batch_max, "", "", kRequestCount},
};

int run_serve(int argc, char** argv) {
  using vds::scenario::CliError;

  ServeFlags flags;
  vds::scenario::Observability observability;
  vds::scenario::CommandLine cli(kUsageHead, kUsageTail);
  cli.add("server", kServeFlags, flags)
      .add("observability", vds::scenario::observability_fields(),
           observability);
  if (!cli.parse(argc, argv)) return 0;

  const bool unix_socket = !flags.unix_path.empty();
  const bool tcp = flags.tcp_port != 0;
  if (int{flags.stdio} + int{unix_socket} + int{tcp} > 1) {
    throw CliError("pick one transport: --stdio, --unix or --tcp");
  }
  // A dead client mid-response must not kill the server.
  std::signal(SIGPIPE, SIG_IGN);
  vds::runtime::install_drain_signal_handlers();

  observability.arm();
  int code;
  {
    vds::serve::Server server(flags);
    if (unix_socket) {
      code = vds::serve::serve_unix(server, flags.unix_path);
    } else if (tcp) {
      code = vds::serve::serve_tcp(
          server, static_cast<std::uint16_t>(flags.tcp_port));
    } else {
      code = vds::serve::serve_stdio(server);
    }
  }
  observability.write();
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_serve(argc, argv);
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
