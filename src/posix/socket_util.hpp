// Nonblocking TCP socket helpers shared by the lsd daemon and the posix
// client/sink applications.
#pragma once

#include <netinet/in.h>
#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "engine/fd.hpp"

namespace lsl::posix {

/// IPv4 address + port in host byte order.
struct InetAddress {
  std::uint32_t addr = 0;  ///< e.g. 0x7f000001 for 127.0.0.1
  std::uint16_t port = 0;

  static InetAddress loopback(std::uint16_t port) {
    return {0x7f000001u, port};
  }
  sockaddr_in to_sockaddr() const;
  std::string to_string() const;
};

/// Parse dotted-quad "a.b.c.d" into host-order u32; nullopt on error.
std::optional<std::uint32_t> parse_ipv4(const std::string& dotted);

/// Set O_NONBLOCK on `fd`; returns false on error.
bool set_nonblocking(int fd);

/// Disable Nagle (TCP_NODELAY).
bool set_nodelay(int fd);

/// Create a nonblocking listening socket bound to `bind_addr` with
/// SO_REUSEADDR. If bind_addr.port == 0, an ephemeral port is chosen;
/// `bound_port` (when non-null) receives the actual port. With
/// `reuse_port`, SO_REUSEPORT is also set — several listeners (one per
/// daemon shard) bind the same address and the kernel load-balances
/// accepted connections across them. Invalid Fd on failure (errno is
/// preserved).
engine::Fd listen_tcp(const InetAddress& bind_addr, int backlog = 64,
              std::uint16_t* bound_port = nullptr, bool reuse_port = false);

/// Begin a nonblocking connect to `remote`. On return the socket is either
/// connected or connecting (EINPROGRESS) — wait for EPOLLOUT and check
/// connect_result(). Invalid Fd on immediate failure.
engine::Fd connect_tcp(const InetAddress& remote);

/// After EPOLLOUT on a connecting socket: 0 on success, else the errno.
int connect_result(int fd);

/// Accept one connection (nonblocking); invalid engine::Fd when none pending.
engine::Fd accept_connection(int listen_fd);

/// write() as much of [data, data+len) as the socket accepts.
/// Returns bytes written (possibly 0 on EAGAIN), or -1 on fatal error.
long write_some(int fd, const std::uint8_t* data, std::size_t len);

/// Scatter/gather write_some: send as much of the iovec array as the
/// socket accepts in one sendmsg (MSG_NOSIGNAL, EINTR retried). The relay
/// uses it to pair the forwarded header with the first payload bytes in
/// one syscall. Returns bytes written (0 on EAGAIN), or -1 on fatal error.
/// Does not modify the iovec array; callers account partial progress.
long writev_some(int fd, const struct iovec* iov, int iovcnt);

/// read() up to `len` bytes. Returns bytes read, 0 on orderly EOF, -1 on
/// EAGAIN (no data), -2 on fatal error.
long read_some(int fd, std::uint8_t* data, std::size_t len);

/// Create a nonblocking pipe (the splice fast path's kernel buffer).
/// On success fills rd/wr and returns the pipe's capacity in bytes
/// (F_GETPIPE_SZ, or a conservative default when unavailable); 0 on
/// failure.
std::size_t make_pipe(engine::Fd* rd, engine::Fd* wr);

/// splice() up to `len` bytes from `in_fd` to `out_fd` without copying
/// through user space. Returns bytes moved, 0 on EOF at `in_fd`, -1 on
/// EAGAIN (either side), -2 on fatal error, -3 when the kernel refuses
/// splice on these fds altogether (EINVAL — caller falls back to the
/// copy path for good).
long splice_some(int in_fd, int out_fd, std::size_t len);

}  // namespace lsl::posix
