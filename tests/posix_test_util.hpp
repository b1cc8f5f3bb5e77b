// Shared helpers for the real-socket (posix) tests: deadline-polling waits
// that drive an EpollEngine with bounded run_once() slices until a condition
// holds, instead of fixed sleeps. A fixed sleep is both slow (it always
// pays the worst case) and flaky (the worst case moves with machine load);
// polling against a generous deadline is neither. Also: spawning the
// lsd_relay and lsl_recv binaries on a kernel-chosen port, running a
// tool binary to completion, and bridging a fault::RoutePolicy to a
// PosixSource's reconnect backoff.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/epoll_engine.hpp"
#include "fault/policy.hpp"
#include "util/units.hpp"

namespace lsl::test {

/// A recovery policy over one fixed route: each loss is a move back onto
/// it, which a resumable PosixSource makes as a reconnect.
inline fault::RoutePolicy fixed_route_policy(const fault::RetryConfig& cfg,
                                             std::uint64_t seed) {
  return fault::RoutePolicy(cfg, seed, {core::CandidateRoute{{"src", "dst"}}});
}

/// Backoff bridge: `policy`'s deterministic verdict delays, converted to
/// the wall-clock milliseconds a posix source waits; nullopt once it
/// gives up.
inline std::function<std::optional<std::chrono::milliseconds>()> backoff_of(
    fault::RoutePolicy& policy) {
  return [&policy]() -> std::optional<std::chrono::milliseconds> {
    const fault::Verdict v = policy.lost();
    if (v.kind == fault::Verdict::Kind::kGiveUp) return std::nullopt;
    return std::chrono::milliseconds(
        std::max<std::int64_t>(1, v.delay / util::kMillisecond));
  };
}

/// Drive `loop` until `cond()` holds or `timeout_s` elapses. Returns the
/// final cond() so callers can ASSERT_TRUE the wait succeeded.
inline bool wait_until(engine::EpollEngine& loop,
                       const std::function<bool()>& cond,
                       double timeout_s = 5.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (!cond() && std::chrono::steady_clock::now() < deadline) {
    loop.run_once(20);
  }
  return cond();
}

/// errno of a blocking connect to loopback `port`; 0 when it connects.
inline int connect_errno(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return errno;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
  const int err = rc == 0 ? 0 : errno;
  ::close(fd);
  return err;
}

/// A child process that reports a kernel-chosen port in a startup banner
/// (an lsd_relay `--daemon 0`, an `lsl_recv 0`): no fixed range that could
/// collide with ephemeral ports under `ctest -j`.
struct SpawnedDaemon {
  pid_t pid = -1;
  std::uint16_t port = 0;  ///< 0 when the banner never arrived
  int out = -1;            ///< read end of the child's output pipe
  std::string output;      ///< output captured so far
};

/// Fork/exec `bin` with `argv` (argv[0] first) and stdout on a pipe —
/// stderr too when `with_stderr`.
inline SpawnedDaemon start_process(const char* bin,
                                   std::vector<std::string> args,
                                   bool with_stderr) {
  SpawnedDaemon d;
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  int fds[2];
  if (::pipe(fds) != 0) return d;
  d.pid = ::fork();
  if (d.pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    if (with_stderr) ::dup2(fds[1], STDERR_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv(bin, argv.data());
    _exit(127);
  }
  ::close(fds[1]);
  d.out = fds[0];
  return d;
}

/// start_process, then wait up to 10 s for a line holding `banner`
/// followed by the port number.
inline SpawnedDaemon spawn_process(const char* bin,
                                   std::vector<std::string> args,
                                   const std::string& banner,
                                   bool with_stderr = false) {
  SpawnedDaemon d = start_process(bin, std::move(args), with_stderr);
  if (d.out < 0) return d;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (d.port == 0 && std::chrono::steady_clock::now() < deadline) {
    pollfd pf{d.out, POLLIN, 0};
    if (::poll(&pf, 1, 100) != 1) continue;
    char buf[512];
    const long n = ::read(d.out, buf, sizeof buf);
    if (n <= 0) break;
    d.output.append(buf, static_cast<std::size_t>(n));
    const auto at = d.output.find(banner);
    if (at != std::string::npos &&
        d.output.find('\n', at) != std::string::npos) {
      d.port = static_cast<std::uint16_t>(
          std::atoi(d.output.c_str() + at + banner.size()));
    }
  }
  return d;
}

/// Fork/exec `bin --daemon 0 <args...>` with stdout on a pipe and wait up
/// to 10 s for its "forwarding daemon on port N" line.
inline SpawnedDaemon spawn_daemon(const char* bin,
                                  std::vector<std::string> args = {}) {
  args.insert(args.begin(), {"lsd_relay", "--daemon", "0"});
  return spawn_process(bin, std::move(args), "forwarding daemon on port ");
}

/// Wait for the process to exit on its own, collecting the rest of its
/// output. Returns the exit status, or -1 when it did not exit normally.
inline int wait_process(SpawnedDaemon& d) {
  if (d.pid <= 0) return -1;
  int status = 0;
  ::waitpid(d.pid, &status, 0);
  d.pid = -1;
  char buf[4096];
  long n;
  while ((n = ::read(d.out, buf, sizeof buf)) > 0) {
    d.output.append(buf, static_cast<std::size_t>(n));
  }
  ::close(d.out);
  d.out = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Run `bin` with `args` (argv[0] first) to completion, stdout and stderr
/// captured in `output`. Returns the exit status, or -1 when it did not
/// exit normally.
inline int run_process(const char* bin, std::vector<std::string> args,
                       std::string* output) {
  SpawnedDaemon p = start_process(bin, std::move(args), /*with_stderr=*/true);
  const int rc = wait_process(p);
  *output = std::move(p.output);
  return rc;
}

/// Send `sig`, wait for the process, and collect the rest of its stdout.
/// Returns the exit status, or -1 when it did not exit normally.
inline int reap_daemon(SpawnedDaemon& d, int sig) {
  if (d.pid <= 0) return -1;
  ::kill(d.pid, sig);
  return wait_process(d);
}

}  // namespace lsl::test
