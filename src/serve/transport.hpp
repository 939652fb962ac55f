#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "serve/server.hpp"

namespace vds::serve {

/// Largest accepted request line. Anything longer is discarded up to
/// its newline and answered with a bad_request error — the reader
/// never buffers unboundedly on a client that forgets the newline.
inline constexpr std::size_t kMaxLineBytes = 1u << 20;  // 1 MiB

/// ResponseSink over a raw file descriptor. One instance per
/// connection; a mutex makes each write_line atomic against the
/// dispatcher and reader threads. Optionally owns (closes) the fd —
/// response lines can outlive the reader thread, so the fd must live
/// as long as the last Pending's shared_ptr, which is exactly the
/// sink's own lifetime.
class FdSink : public ResponseSink {
 public:
  /// Invoked exactly once, with the errno of the first failed write.
  using ErrorCallback = std::function<void(int)>;

  explicit FdSink(int fd, bool owns_fd) : fd_(fd), owns_fd_(owns_fd) {}
  ~FdSink() override;
  void write_line(const std::string& line) override;

  /// Registers the callback fired on the first write failure
  /// (ECONNRESET/EPIPE et al. — the peer vanished). Later writes are
  /// dropped without re-firing. Set before the sink is shared with
  /// other threads.
  void on_error(ErrorCallback callback) { on_error_ = std::move(callback); }

  /// True once any write to the peer has failed.
  [[nodiscard]] bool failed() const noexcept { return failed_.load(); }

 private:
  int fd_;
  bool owns_fd_;
  std::mutex mutex_;
  std::atomic<bool> failed_{false};
  ErrorCallback on_error_;
};

/// Incremental newline-delimited reader over a file descriptor.
/// Reads are bounded (poll + 100 ms timeout) so a drain signal is
/// noticed promptly even on an idle connection.
class LineReader {
 public:
  enum class Status {
    kLine,      ///< `line` holds one complete request line
    kOverlong,  ///< a line exceeded kMaxLineBytes and was discarded
    kEof,       ///< peer closed after the last complete line
    kDrain,     ///< global drain requested while waiting for input
    kError,     ///< unrecoverable read error
    kTimeout,   ///< poll_next: no complete line within the deadline
  };

  explicit LineReader(int fd) : fd_(fd) {}

  /// Blocks until one of the states above. Complete lines already
  /// buffered are returned before the drain flag is consulted, so
  /// requests fully received before the signal still get (drain
  /// error) responses instead of vanishing.
  [[nodiscard]] Status next(std::string& line);

  /// `next` with a deadline: returns kTimeout if no complete line
  /// arrived within `timeout_ms`. The descriptor is polled at least
  /// once, so a zero timeout reads what is already there (a line, a
  /// hang-up) without blocking — the fabric coordinator checks an
  /// idle worker's connection this way. A partial line stays buffered
  /// and a later call picks it up.
  [[nodiscard]] Status poll_next(std::string& line, int timeout_ms);

 private:
  int fd_;
  std::string buffer_;
  bool eof_ = false;
  bool discarding_ = false;
};

// Each loop returns the tool's exit code: 0 when input ended and every
// accepted request was answered, 130 when a drain signal stopped the
// server (in-flight work finished, queued requests answered with
// code=drain), 3 on a transport failure.

/// stdin -> requests, stdout -> responses. Exits 0 at EOF.
int serve_stdio(Server& server);

/// Unix stream socket at `path` (replaced if present). Accepts any
/// number of concurrent connections; exits only via drain (130).
int serve_unix(Server& server, const std::string& path);

/// TCP on 127.0.0.1:`port`. Same lifecycle as serve_unix.
int serve_tcp(Server& server, std::uint16_t port);

// Listener plumbing shared with the fabric coordinator. Each returns
// a bound, listening fd, or -1 with errno set.

/// Replaces a stale socket file at `path`, then binds a sibling name
/// of the same length, listens, and renames it onto `path`: the path
/// exists only once it accepts connections, so a client that polls for
/// it never connects too early. On failure nothing is left behind.
[[nodiscard]] int listen_unix(const std::string& path);
[[nodiscard]] int listen_tcp(std::uint16_t port);

/// accept(2) with the global drain flag polled every 100 ms. Returns
/// the connection fd, or -1 once drain is requested or the listener
/// dies.
[[nodiscard]] int accept_or_drain(int listen_fd);

// Client-side connectors (fabric workers dial the coordinator with
// these). Both return the connected fd, or -1 with errno set.

/// Connects to the Unix stream socket at `path`.
[[nodiscard]] int connect_unix(const std::string& path);

/// Connects to 127.0.0.1:`port`.
[[nodiscard]] int connect_tcp(std::uint16_t port);

}  // namespace vds::serve
