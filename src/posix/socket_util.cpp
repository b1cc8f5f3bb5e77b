#include "posix/socket_util.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace lsl::posix {

sockaddr_in InetAddress::to_sockaddr() const {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(addr);
  sa.sin_port = htons(port);
  return sa;
}

std::string InetAddress::to_string() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u:%u", (addr >> 24) & 255,
                (addr >> 16) & 255, (addr >> 8) & 255, addr & 255, port);
  return buf;
}

std::optional<std::uint32_t> parse_ipv4(const std::string& dotted) {
  in_addr a{};
  if (::inet_pton(AF_INET, dotted.c_str(), &a) != 1) return std::nullopt;
  return ntohl(a.s_addr);
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool set_nodelay(int fd) {
  const int one = 1;
  return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0;
}

engine::Fd listen_tcp(const InetAddress& bind_addr, int backlog,
              std::uint16_t* bound_port, bool reuse_port) {
  engine::Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return {};
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuse_port) {
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
  }
  sockaddr_in sa = bind_addr.to_sockaddr();
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    return {};
  }
  if (!set_nonblocking(fd.get())) return {};
  if (::listen(fd.get(), backlog) != 0) return {};
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&actual), &len) ==
        0) {
      *bound_port = ntohs(actual.sin_port);
    }
  }
  return fd;
}

engine::Fd connect_tcp(const InetAddress& remote) {
  engine::Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return {};
  if (!set_nonblocking(fd.get())) return {};
  set_nodelay(fd.get());
  sockaddr_in sa = remote.to_sockaddr();
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 &&
      errno != EINPROGRESS) {
    return {};
  }
  return fd;
}

int connect_result(int fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) return errno;
  return err;
}

engine::Fd accept_connection(int listen_fd) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) return {};
  engine::Fd out(fd);
  set_nonblocking(fd);
  set_nodelay(fd);
  return out;
}

namespace {

engine::Fd open_spare() {
  return engine::Fd(::open("/dev/null", O_RDONLY | O_CLOEXEC));
}

}  // namespace

SpareFd::SpareFd() : fd_(open_spare()) {}

bool SpareFd::shed(int listen_fd, int err) {
  if (err != EMFILE && err != ENFILE) return false;
  if (!fd_.valid()) {
    fd_ = open_spare();  // a descriptor may have freed since
    if (!fd_.valid()) return false;
  }
  fd_.reset();
  const int conn = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
  if (conn >= 0) {
    // Linger 0: close sends RST, so the peer fails at once instead of
    // waiting on a connection nobody serves.
    struct linger lg {1, 0};
    ::setsockopt(conn, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    ::close(conn);
  }
  fd_ = open_spare();
  return conn >= 0;
}

long write_some(int fd, const std::uint8_t* data, std::size_t len) {
  std::size_t total = 0;
  while (total < len) {
    // MSG_NOSIGNAL: a peer reset between poll and write must surface as
    // EPIPE, not a process-killing SIGPIPE (fault injection relies on it).
    const ssize_t n = ::send(fd, data + total, len - total, MSG_NOSIGNAL);
    if (n > 0) {
      total += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return -1;
  }
  return static_cast<long>(total);
}

long writev_some(int fd, const struct iovec* iov, int iovcnt) {
  for (;;) {
    msghdr msg{};
    // sendmsg's iovec is mutation-free here (one shot, no retry walk);
    // const_cast bridges the POSIX struct's non-const field.
    msg.msg_iov = const_cast<struct iovec*>(iov);
    msg.msg_iovlen = static_cast<decltype(msg.msg_iovlen)>(iovcnt);
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n >= 0) return static_cast<long>(n);
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    if (errno == EINTR) continue;
    return -1;
  }
}

long read_some(int fd, std::uint8_t* data, std::size_t len) {
  while (true) {
    const ssize_t n = ::read(fd, data, len);
    if (n > 0) return static_cast<long>(n);
    if (n == 0) return 0;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    if (errno == EINTR) continue;
    return -2;
  }
}

std::size_t make_pipe(engine::Fd* rd, engine::Fd* wr) {
  int fds[2];
  if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) return 0;
  rd->reset(fds[0]);
  wr->reset(fds[1]);
  // Deliberately left at the kernel's default capacity (64 KiB). Span
  // profiling (span.stream_window) showed F_SETPIPE_SZ to 256 KiB / 1 MiB
  // does let one splice move a whole window per wakeup, but bought no
  // aggregate throughput under concurrent sessions — the loop is bounded
  // elsewhere, and bigger bursts only make per-turn work less fair. See
  // docs/MEMORY.md ("Profiling the splice path with stream windows").
  const int cap = ::fcntl(fds[0], F_GETPIPE_SZ);
  // Linux's default pipe capacity; used when F_GETPIPE_SZ is unsupported.
  return cap > 0 ? static_cast<std::size_t>(cap) : 65536u;
}

long splice_some(int in_fd, int out_fd, std::size_t len) {
  for (;;) {
    const ssize_t n =
        ::splice(in_fd, nullptr, out_fd, nullptr, len,
                 SPLICE_F_MOVE | SPLICE_F_NONBLOCK);
    if (n > 0) return static_cast<long>(n);
    if (n == 0) return 0;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    if (errno == EINTR) continue;
    if (errno == EINVAL) return -3;  // fds unspliceable: fall back for good
    return -2;
  }
}

}  // namespace lsl::posix
