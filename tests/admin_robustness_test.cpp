// Admin-socket robustness: the introspection endpoint must shrug off
// hostile or unlucky clients — partial command reads, pipelined batches,
// runaway input with no newline (the 4096-byte cap), empty lines, and
// clients that vanish mid-response — without wedging the daemon's event
// loop or leaking the connection. Protocol happy paths live in
// span_posix_test.cpp; this file is the unhappy half.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>

#include "engine/epoll_engine.hpp"
#include "posix/admin.hpp"
#include "posix/sharded_lsd.hpp"
#include "span/span.hpp"

namespace lsl::test {
namespace {

using engine::EpollEngine;
using posix::ShardedLsd;
using posix::ShardedLsdConfig;

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + "/" + leaf;
}

/// Raw nonblocking Unix-domain client; no framing smarts on purpose — the
/// tests drive the byte stream by hand.
class RawClient {
 public:
  explicit RawClient(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0 &&
        errno != EINPROGRESS && errno != EAGAIN) {
      close();
    }
  }
  ~RawClient() { close(); }

  bool valid() const { return fd_ >= 0; }

  bool send_all(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
      return false;  // EPIPE etc.
    }
    return true;
  }

  /// Drain whatever is readable right now into `buf_`; true if the peer
  /// closed the connection.
  bool drain() {
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd_, buf, sizeof buf, 0)) > 0) {
      buf_.append(buf, static_cast<std::size_t>(n));
    }
    return n == 0;
  }

  const std::string& received() const { return buf_; }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

class AdminRobustness : public ::testing::Test {
 protected:
  void SetUp() override {
    try {
      // The endpoint runs on this test's loop, like lsd_relay's control
      // loop; the one-shard daemon behind it relays on its own thread.
      loop_ = std::make_unique<EpollEngine>();
      ShardedLsdConfig cfg;
      cfg.shards = 1;
      lsd_ = std::make_unique<ShardedLsd>(cfg);
      sock_path_ = temp_path("admin_rob.sock");
      admin_ = std::make_unique<posix::AdminServer>(*loop_, sock_path_, *lsd_);
    } catch (const std::exception& e) {
      GTEST_SKIP() << "sockets unavailable in sandbox: " << e.what();
    }
  }

  void TearDown() override {
    admin_.reset();
    lsd_.reset();
    loop_.reset();
  }

  void turns(int n, int timeout_ms = 10) {
    for (int i = 0; i < n; ++i) loop_->run_once(timeout_ms);
  }

  /// Drive until the client has `frames` complete blank-line-terminated
  /// responses (or the peer closes, or ~5s passes).
  bool drive_until_frames(RawClient& c, int frames) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      loop_->run_once(20);
      const bool closed = c.drain();
      if (count_frames(c.received()) >= frames) return true;
      if (closed) return count_frames(c.received()) >= frames;
    }
    return false;
  }

  static int count_frames(const std::string& bytes) {
    int n = 0;
    std::size_t at = 0;
    while ((at = bytes.find("\n\n", at)) != std::string::npos) {
      ++n;
      at += 2;
    }
    return n;
  }

  std::unique_ptr<EpollEngine> loop_;
  std::unique_ptr<ShardedLsd> lsd_;
  std::unique_ptr<posix::AdminServer> admin_;
  std::string sock_path_;
};

TEST_F(AdminRobustness, PartialCommandReassembledAcrossReads) {
  RawClient c(sock_path_);
  ASSERT_TRUE(c.valid());
  ASSERT_TRUE(c.send_all("hea"));
  turns(5);  // the fragment reaches the server; no newline, no answer yet
  EXPECT_EQ(c.received(), "");
  ASSERT_TRUE(c.send_all("lth\n"));
  ASSERT_TRUE(drive_until_frames(c, 1));
  EXPECT_NE(c.received().find("\"live_relays\""), std::string::npos)
      << c.received();
}

TEST_F(AdminRobustness, PipelinedCommandsAnswerInOrder) {
  RawClient c(sock_path_);
  ASSERT_TRUE(c.valid());
  // Three commands in one write; the middle one is unknown. Three frames
  // must come back, in order, the error sandwiched where it was sent.
  ASSERT_TRUE(c.send_all("health\nselfdestruct\nhealth\n"));
  ASSERT_TRUE(drive_until_frames(c, 3));
  const std::string& got = c.received();
  const auto first = got.find("\"live_relays\"");
  const auto err = got.find("\"error\"");
  const auto second = got.rfind("\"live_relays\"");
  ASSERT_NE(first, std::string::npos) << got;
  ASSERT_NE(err, std::string::npos) << got;
  ASSERT_NE(second, std::string::npos) << got;
  EXPECT_LT(first, err);
  EXPECT_LT(err, second);
}

TEST_F(AdminRobustness, EmptyCommandLineAnswersAnErrorFrame) {
  RawClient c(sock_path_);
  ASSERT_TRUE(c.valid());
  ASSERT_TRUE(c.send_all("\n"));
  ASSERT_TRUE(drive_until_frames(c, 1));
  EXPECT_NE(c.received().find("\"error\""), std::string::npos)
      << c.received();
}

TEST_F(AdminRobustness, RunawayInputWithoutNewlineClosesTheConnection) {
  RawClient c(sock_path_);
  ASSERT_TRUE(c.valid());
  // 8 KiB with no newline blows the server's 4096-byte line cap; the
  // server must drop the connection rather than buffer without bound.
  const std::string runaway(8192, 'x');
  c.send_all(runaway);  // may hit EAGAIN once the server stops reading
  bool closed = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!closed && std::chrono::steady_clock::now() < deadline) {
    loop_->run_once(20);
    closed = c.drain();
  }
  EXPECT_TRUE(closed) << "server kept a runaway connection open";
  EXPECT_EQ(c.received(), "");  // and answered it nothing

  // The endpoint itself must still serve the next client.
  RawClient c2(sock_path_);
  ASSERT_TRUE(c2.valid());
  ASSERT_TRUE(c2.send_all("health\n"));
  ASSERT_TRUE(drive_until_frames(c2, 1));
  EXPECT_NE(c2.received().find("\"live_relays\""), std::string::npos);
}

TEST_F(AdminRobustness, ClientDisconnectMidSpansResponseIsHarmless) {
  // A full flight recorder makes `spans` answer several hundred KiB —
  // far more than a Unix socket buffers — so the server is mid-flush
  // (EPOLLOUT armed) when the client vanishes.
  span::Tracer tracer("lsd.rob");
  for (std::uint64_t i = 0; i < span::FlightRecorder::kDefaultCapacity; ++i) {
    tracer.emit(i + 1, span::kSpanDial, 0.001 * static_cast<double>(i),
                0.001 * static_cast<double>(i + 1), i);
  }
  admin_->set_tracer(&tracer);

  {
    RawClient c(sock_path_);
    ASSERT_TRUE(c.valid());
    ASSERT_TRUE(c.send_all("spans\n"));
    turns(3);  // let the server stage (and partially write) the response
    c.drain();  // read a little of it, then vanish without finishing
    c.close();
  }
  turns(10);  // server observes the hangup and reaps the connection

  // The loop and the endpoint survive: a fresh client gets full answers,
  // including the same big spans payload read to completion this time.
  RawClient c2(sock_path_);
  ASSERT_TRUE(c2.valid());
  ASSERT_TRUE(c2.send_all("spans\n"));
  ASSERT_TRUE(drive_until_frames(c2, 1));
  EXPECT_NE(c2.received().find("span.dial"), std::string::npos);
  ASSERT_TRUE(c2.send_all("health\n"));
  ASSERT_TRUE(drive_until_frames(c2, 2));
  EXPECT_NE(c2.received().find("\"live_relays\""), std::string::npos);
}

}  // namespace
}  // namespace lsl::test
