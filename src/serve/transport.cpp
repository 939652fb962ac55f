#include "serve/transport.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "runtime/mc_campaign.hpp"

namespace vds::serve {

namespace {

constexpr int kPollMs = 100;  // bound every blocking wait for drain checks

/// One connection's read loop: feed lines to the server until the
/// peer closes or a drain signal lands. The sink owns the connection
/// fd, so responses still in the dispatcher can be written (and the
/// fd closed) after this returns.
void read_connection(Server& server, std::shared_ptr<FdSink> sink, int fd) {
  LineReader reader(fd);
  std::string line;
  for (;;) {
    switch (reader.next(line)) {
      case LineReader::Status::kLine:
        if (!line.empty()) server.submit(line, sink);
        break;
      case LineReader::Status::kOverlong:
        sink->write_line(format_error(
            "", kErrBadRequest,
            "request line exceeds " + std::to_string(kMaxLineBytes) +
                " bytes"));
        break;
      case LineReader::Status::kTimeout:  // next() has no deadline
      case LineReader::Status::kEof:
      case LineReader::Status::kDrain:
      case LineReader::Status::kError:
        // Stop reading; the write side stays open inside the sink
        // until its last response (possibly a drain error) is out.
        ::shutdown(fd, SHUT_RD);
        return;
    }
  }
}

/// Shared accept loop for both socket transports. Runs until a drain
/// signal: stops accepting, waits for the reader threads (each exits
/// within kPollMs of the flag), then finishes the server so queued
/// requests get their drain errors before the sinks close.
int serve_socket(Server& server, int listen_fd) {
  std::vector<std::thread> readers;
  for (;;) {
    const int fd = accept_or_drain(listen_fd);
    if (fd < 0) break;
    auto sink = std::make_shared<FdSink>(fd, /*owns_fd=*/true);
    sink->on_error([&server](int) { server.note_transport_error(); });
    readers.emplace_back(
        [&server, sink = std::move(sink), fd] {
          read_connection(server, sink, fd);
        });
  }
  ::close(listen_fd);
  for (std::thread& reader : readers) reader.join();
  server.finish();
  return runtime::drain_requested() ? 130 : 3;
}

}  // namespace

int accept_or_drain(int listen_fd) {
  for (;;) {
    if (runtime::drain_requested()) return -1;
    struct pollfd pfd = {listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (ready == 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return fd;
    if (errno == EINTR || errno == ECONNABORTED) continue;
    return -1;
  }
}

int listen_unix(const std::string& path) {
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) return -1;
  struct sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(listen_fd);
    errno = ENAMETOOLONG;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // replace a stale socket from a prior run
  if (::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(listen_fd, 64) < 0) {
    const int error = errno;
    ::close(listen_fd);
    errno = error;
    return -1;
  }
  return listen_fd;
}

int listen_tcp(std::uint16_t port) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) return -1;
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // local clients only
  if (::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(listen_fd, 64) < 0) {
    const int error = errno;
    ::close(listen_fd);
    errno = error;
    return -1;
  }
  return listen_fd;
}

FdSink::~FdSink() {
  if (owns_fd_) ::close(fd_);
}

void FdSink::write_line(const std::string& line) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (failed_.load()) return;  // peer already gone; drop silently
  std::string out = line;
  out.push_back('\n');
  const char* data = out.data();
  std::size_t left = out.size();
  while (left > 0) {
    const ssize_t wrote = ::write(fd_, data, left);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      // Peer gone (ECONNRESET/EPIPE et al.). Record and surface the
      // failure once — a fabric worker uses this to tell a dead
      // coordinator from a slow one, and vds_serve counts it in
      // vds.serve_stats.v1.
      error_.store(errno);
      failed_.store(true);
      if (on_error_) on_error_(errno);
      return;
    }
    data += wrote;
    left -= static_cast<std::size_t>(wrote);
  }
}

LineReader::Status LineReader::next(std::string& line) {
  for (;;) {
    const Status status = poll_next(line, kPollMs);
    if (status != Status::kTimeout) return status;
  }
}

LineReader::Status LineReader::poll_next(std::string& line, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line.assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      if (discarding_) {
        discarding_ = false;
        return Status::kOverlong;
      }
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return Status::kLine;
    }
    if (buffer_.size() > kMaxLineBytes) {
      discarding_ = true;
    }
    if (discarding_) buffer_.clear();
    if (eof_) {
      if (!buffer_.empty()) {  // final line without a trailing newline
        line = std::move(buffer_);
        buffer_.clear();
        return Status::kLine;
      }
      return Status::kEof;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) return Status::kTimeout;
    struct pollfd pfd = {fd_, POLLIN, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(std::min<long long>(left, kPollMs)));
    if (runtime::drain_requested()) return Status::kDrain;
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::kError;
    }
    if (ready == 0) continue;
    char chunk[4096];
    const ssize_t got = ::read(fd_, chunk, sizeof(chunk));
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::kError;
    }
    if (got == 0) {
      eof_ = true;
      continue;
    }
    buffer_.append(chunk, static_cast<std::size_t>(got));
  }
}

int serve_stdio(Server& server) {
  auto sink = std::make_shared<FdSink>(STDOUT_FILENO, /*owns_fd=*/false);
  sink->on_error([&server](int) { server.note_transport_error(); });
  LineReader reader(STDIN_FILENO);
  std::string line;
  for (;;) {
    switch (reader.next(line)) {
      case LineReader::Status::kLine:
        if (!line.empty()) server.submit(line, sink);
        break;
      case LineReader::Status::kOverlong:
        sink->write_line(format_error(
            "", kErrBadRequest,
            "request line exceeds " + std::to_string(kMaxLineBytes) +
                " bytes"));
        break;
      case LineReader::Status::kDrain:
        server.finish();
        return 130;
      case LineReader::Status::kEof:
        // Everything accepted gets answered before finish() returns.
        server.finish();
        return runtime::drain_requested() ? 130 : 0;
      case LineReader::Status::kTimeout:  // next() has no deadline
      case LineReader::Status::kError:
        server.finish();
        return 3;
    }
  }
}

int serve_unix(Server& server, const std::string& path) {
  const int listen_fd = listen_unix(path);
  if (listen_fd < 0) {
    std::perror("vds_serve: bind/listen");
    return 3;
  }
  const int code = serve_socket(server, listen_fd);
  ::unlink(path.c_str());
  return code;
}

int serve_tcp(Server& server, std::uint16_t port) {
  const int listen_fd = listen_tcp(port);
  if (listen_fd < 0) {
    std::perror("vds_serve: bind/listen");
    return 3;
  }
  return serve_socket(server, listen_fd);
}

int connect_unix(const std::string& path) {
  struct sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    errno = ENAMETOOLONG;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int error = errno;
    ::close(fd);
    errno = error;
    return -1;
  }
  return fd;
}

int connect_tcp(std::uint16_t port) {
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int error = errno;
    ::close(fd);
    errno = error;
    return -1;
  }
  return fd;
}

}  // namespace vds::serve
