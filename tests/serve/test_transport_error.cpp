// FdSink failure surfacing and LineReader::poll_next deadlines — the
// transport behaviors the serve stats counter and the fabric
// coordinator's grant/collect loop depend on.

#include "serve/transport.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <string>
#include <thread>

#include <unistd.h>

namespace vds::serve {
namespace {

struct Pipe {
  int read_fd = -1;
  int write_fd = -1;
  Pipe() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::pipe(fds), 0);
    read_fd = fds[0];
    write_fd = fds[1];
  }
  ~Pipe() {
    if (read_fd >= 0) ::close(read_fd);
    if (write_fd >= 0) ::close(write_fd);
  }
};

TEST(FdSinkError, ClosedPipeFiresCallbackExactlyOnce) {
  // Writes to a pipe with no reader raise EPIPE (SIGPIPE ignored).
  std::signal(SIGPIPE, SIG_IGN);
  Pipe pipe;
  FdSink sink(pipe.write_fd, /*owns_fd=*/false);
  int fired = 0;
  int seen_errno = 0;
  sink.on_error([&](int error) {
    ++fired;
    seen_errno = error;
  });
  EXPECT_FALSE(sink.failed());

  ::close(pipe.read_fd);
  pipe.read_fd = -1;
  sink.write_line("first");
  EXPECT_TRUE(sink.failed());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(seen_errno, EPIPE);

  // Later writes are dropped without re-firing.
  sink.write_line("second");
  sink.write_line("third");
  EXPECT_EQ(fired, 1);
}

TEST(FdSinkError, HealthyPipeNeverFires) {
  Pipe pipe;
  FdSink sink(pipe.write_fd, /*owns_fd=*/false);
  int fired = 0;
  sink.on_error([&](int) { ++fired; });
  sink.write_line("hello");
  EXPECT_FALSE(sink.failed());
  EXPECT_EQ(fired, 0);
  char buf[16] = {};
  ASSERT_EQ(::read(pipe.read_fd, buf, sizeof buf), 6);
  EXPECT_EQ(std::string(buf), "hello\n");
}

TEST(LineReaderPoll, TimesOutWithoutInputThenPicksUpTheLine) {
  Pipe pipe;
  LineReader reader(pipe.read_fd);
  std::string line;

  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(reader.poll_next(line, 50), LineReader::Status::kTimeout);
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_GE(waited, std::chrono::milliseconds(45));
  EXPECT_LT(waited, std::chrono::seconds(5));

  ASSERT_EQ(::write(pipe.write_fd, "one\ntw", 6), 6);
  EXPECT_EQ(reader.poll_next(line, 50), LineReader::Status::kLine);
  EXPECT_EQ(line, "one");
  // The partial "tw" stays buffered across a timeout...
  EXPECT_EQ(reader.poll_next(line, 30), LineReader::Status::kTimeout);
  ASSERT_EQ(::write(pipe.write_fd, "o\n", 2), 2);
  // ...and completes on a later call.
  EXPECT_EQ(reader.poll_next(line, 50), LineReader::Status::kLine);
  EXPECT_EQ(line, "two");
}

TEST(LineReaderPoll, EofStillReported) {
  Pipe pipe;
  LineReader reader(pipe.read_fd);
  ASSERT_EQ(::write(pipe.write_fd, "tail", 4), 4);
  ::close(pipe.write_fd);
  pipe.write_fd = -1;
  std::string line;
  EXPECT_EQ(reader.poll_next(line, 100), LineReader::Status::kLine);
  EXPECT_EQ(line, "tail");  // final line without trailing newline
  EXPECT_EQ(reader.poll_next(line, 100), LineReader::Status::kEof);
}

}  // namespace
}  // namespace vds::serve
