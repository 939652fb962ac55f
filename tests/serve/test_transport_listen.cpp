// serve::listen_unix: the socket path appears only once it listens,
// through a same-length sibling name that never outlives the call.

#include "serve/transport.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

namespace vds::serve {
namespace {

namespace fs = std::filesystem;

class ListenUnix : public ::testing::Test {
 protected:
  void SetUp() override {
    char pattern[] = "/tmp/vds_listen_XXXXXX";
    ASSERT_NE(::mkdtemp(pattern), nullptr);
    dir_ = pattern;
  }
  void TearDown() override {
    for (const int fd : fds_) ::close(fd);
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  int keep(int fd) {
    if (fd >= 0) fds_.push_back(fd);
    return fd;
  }

  std::vector<std::string> entries() const {
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      names.push_back(entry.path().filename().string());
    }
    return names;
  }

  /// A path in the temp directory exactly `bytes` long.
  std::string path_of_length(std::size_t bytes) const {
    const std::string prefix = dir_ + "/s";
    return prefix + std::string(bytes - prefix.size(), 'k');
  }

  static bool is_socket(const std::string& path) {
    struct stat st = {};
    return ::stat(path.c_str(), &st) == 0 && S_ISSOCK(st.st_mode);
  }

  std::string dir_;
  std::vector<int> fds_;
};

TEST_F(ListenUnix, PathIsAListeningSocketOnReturn) {
  const std::string path = dir_ + "/f.sock";
  ASSERT_GE(keep(listen_unix(path)), 0) << std::strerror(errno);
  EXPECT_TRUE(is_socket(path));
  EXPECT_GE(keep(connect_unix(path)), 0) << std::strerror(errno);
  EXPECT_EQ(entries(), std::vector<std::string>{"f.sock"});
}

TEST_F(ListenUnix, OneCharacterBasenameListens) {
  const std::string path = dir_ + "/s";
  ASSERT_GE(keep(listen_unix(path)), 0) << std::strerror(errno);
  EXPECT_GE(keep(connect_unix(path)), 0) << std::strerror(errno);
  EXPECT_EQ(entries(), std::vector<std::string>{"s"});
}

TEST_F(ListenUnix, StaleSocketIsReplaced) {
  const std::string path = dir_ + "/f.sock";
  // A socket file left behind by a process that died without unlinking.
  const int stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(stale, 0);
  struct sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::bind(stale, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ::close(stale);
  ASSERT_TRUE(is_socket(path));
  EXPECT_LT(connect_unix(path), 0);  // nobody listens behind it

  ASSERT_GE(keep(listen_unix(path)), 0) << std::strerror(errno);
  EXPECT_GE(keep(connect_unix(path)), 0) << std::strerror(errno);
  EXPECT_EQ(entries(), std::vector<std::string>{"f.sock"});
}

TEST_F(ListenUnix, LongestPathThatFitsListens) {
  const std::string path = path_of_length(sizeof(sockaddr_un::sun_path) - 1);
  ASSERT_EQ(path.size(), 107u);
  ASSERT_GE(keep(listen_unix(path)), 0) << std::strerror(errno);
  EXPECT_GE(keep(connect_unix(path)), 0) << std::strerror(errno);
  EXPECT_EQ(entries().size(), 1u);
}

TEST_F(ListenUnix, OverlongPathFailsAndLeavesNothing) {
  const std::string path = path_of_length(sizeof(sockaddr_un::sun_path));
  ASSERT_EQ(path.size(), 108u);
  errno = 0;
  EXPECT_EQ(listen_unix(path), -1);
  EXPECT_EQ(errno, ENAMETOOLONG);
  EXPECT_TRUE(entries().empty());
}

TEST_F(ListenUnix, FailedRenameLeavesNoTemporary) {
  // A directory at the path cannot be replaced by a socket.
  const std::string path = dir_ + "/f.sock";
  ASSERT_TRUE(fs::create_directory(path));
  EXPECT_EQ(listen_unix(path), -1);
  EXPECT_EQ(entries(), std::vector<std::string>{"f.sock"});
}

}  // namespace
}  // namespace vds::serve
