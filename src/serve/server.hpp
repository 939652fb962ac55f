#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "runtime/thread_pool.hpp"
#include "serve/protocol.hpp"
#include "sim/stats.hpp"

namespace vds::serve {

struct ServerOptions {
  /// Warm pool workers shared by every request; 0 = hardware.
  unsigned threads = 0;
  /// Admission bound on OUTSTANDING requests (queued + in service).
  /// A submission beyond it is rejected immediately with a
  /// vds.serve_error.v1 code=queue_full line — never queued
  /// unboundedly, never silently dropped.
  std::size_t queue_limit = 64;
  /// Requests coalesced per dispatch: their cells all land on the
  /// shared pool before the single barrier, so a small request rides
  /// along with a large one instead of waiting behind it.
  std::size_t batch_max = 8;
};

/// Where a client's response lines go. One sink per connection;
/// write_line must be safe to call from the dispatcher thread and the
/// connection's reader thread concurrently (implementations lock).
class ResponseSink {
 public:
  virtual ~ResponseSink() = default;
  /// Writes `line` plus a trailing newline, atomically per call.
  virtual void write_line(const std::string& line) = 0;
};

/// The long-lived campaign server. Requests arrive as single
/// vds.serve_request.v1 lines via submit() (any thread); campaign/run
/// work queues for the dispatcher thread, which batches compatible
/// requests onto one warm ThreadPool — compatible meaning any mix of
/// campaigns and runs, because every cell re-derives its RNG substream
/// from (seed, index) and is immune to interleaving. stats requests
/// are answered synchronously in submit().
///
/// Responses are bitwise-identical to the one-shot tools: campaign
/// bodies reuse vds_mc's write_snapshot (equal digests = bitwise-equal
/// summaries), run bodies reuse vds_cli's envelope writer.
///
/// Shutdown: a global drain request (SIGTERM/SIGINT) lets the batch
/// in flight finish — campaign configs run with honor_global_drain
/// off — then fails every still-queued request with code=drain; the
/// tool exits 130. finish() (stdin EOF) instead completes everything
/// queued and exits 0.
class Server {
 public:
  explicit Server(ServerOptions options);

  /// Joins the dispatcher (calling finish() if nobody has).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Handles one request line: parse, admit (or reject with a
  /// structured error), enqueue. Every line produces exactly one
  /// response or error line on `sink`, though possibly much later.
  void submit(const std::string& line, std::shared_ptr<ResponseSink> sink);

  /// No more input: blocks until every accepted request has been
  /// answered (or, under drain, failed with code=drain) and the
  /// dispatcher has exited.
  void finish();

  [[nodiscard]] StatsSnapshot stats_snapshot();

  /// Counts one failed response write (the connection's peer vanished
  /// — ECONNRESET/EPIPE). Called from FdSink's error callback; shows
  /// up as `transport_errors` in vds.serve_stats.v1.
  void note_transport_error();

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    ServeRequest request;
    std::shared_ptr<ResponseSink> sink;
    Clock::time_point enqueued{};
    Clock::time_point deadline{};  ///< epoch = none
  };

  void dispatcher_loop();
  void process_batch(std::deque<Pending>& batch);
  void record_done(const Pending& pending, Clock::time_point dispatched);
  void reject(const Pending& pending, std::string_view code,
              std::string_view message);

  ServerOptions options_;
  runtime::ThreadPool pool_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  std::size_t outstanding_ = 0;  // queued + in service
  bool stop_ = false;

  std::mutex stats_mutex_;
  StatsSnapshot counts_;  // distribution fields unused; see below
  vds::sim::Histogram queue_ms_;
  vds::sim::Histogram service_ms_;

  std::thread dispatcher_;
};

}  // namespace vds::serve
