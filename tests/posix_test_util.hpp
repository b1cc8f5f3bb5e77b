// Shared helpers for the real-socket (posix) tests: deadline-polling waits
// that drive an EpollEngine with bounded run_once() slices until a condition
// holds, instead of fixed sleeps. A fixed sleep is both slow (it always
// pays the worst case) and flaky (the worst case moves with machine load);
// polling against a generous deadline is neither. Also: spawning the
// lsd_relay binary on a kernel-chosen port.
#pragma once

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "engine/epoll_engine.hpp"

namespace lsl::test {

/// Drive `loop` until `cond()` holds or `timeout_s` elapses. `tick`, when
/// set, runs after every loop slice — the place for fault-driver poll(),
/// parked-session expiry, or any other per-iteration chore. Returns the
/// final cond() so callers can ASSERT_TRUE the wait succeeded.
inline bool wait_until(engine::EpollEngine& loop,
                       const std::function<bool()>& cond,
                       double timeout_s = 5.0,
                       const std::function<void()>& tick = nullptr,
                       int slice_ms = 20) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (!cond() && std::chrono::steady_clock::now() < deadline) {
    loop.run_once(slice_ms);
    if (tick) tick();
  }
  return cond();
}

/// An lsd_relay process started as `--daemon 0`: the kernel picks a free
/// port (no fixed range that could collide with ephemeral ports under
/// `ctest -j`), and the daemon reports it in its startup banner.
struct SpawnedDaemon {
  pid_t pid = -1;
  std::uint16_t port = 0;  ///< 0 when the banner never arrived
  int out = -1;            ///< read end of the daemon's stdout pipe
  std::string output;      ///< stdout captured so far
};

/// Fork/exec `bin --daemon 0 <args...>` with stdout on a pipe and wait up
/// to 10 s for its "forwarding daemon on port N" line.
inline SpawnedDaemon spawn_daemon(const char* bin,
                                  std::vector<std::string> args = {}) {
  SpawnedDaemon d;
  args.insert(args.begin(), {"lsd_relay", "--daemon", "0"});
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  int fds[2];
  if (::pipe(fds) != 0) return d;
  d.pid = ::fork();
  if (d.pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv(bin, argv.data());
    _exit(127);
  }
  ::close(fds[1]);
  d.out = fds[0];
  static constexpr char kBanner[] = "forwarding daemon on port ";
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (d.port == 0 && std::chrono::steady_clock::now() < deadline) {
    pollfd pf{d.out, POLLIN, 0};
    if (::poll(&pf, 1, 100) != 1) continue;
    char buf[512];
    const long n = ::read(d.out, buf, sizeof buf);
    if (n <= 0) break;
    d.output.append(buf, static_cast<std::size_t>(n));
    const auto at = d.output.find(kBanner);
    if (at != std::string::npos &&
        d.output.find('\n', at) != std::string::npos) {
      d.port = static_cast<std::uint16_t>(
          std::atoi(d.output.c_str() + at + sizeof(kBanner) - 1));
    }
  }
  return d;
}

/// Send `sig`, wait for the process, and collect the rest of its stdout.
/// Returns the exit status, or -1 when it did not exit normally.
inline int reap_daemon(SpawnedDaemon& d, int sig) {
  if (d.pid <= 0) return -1;
  ::kill(d.pid, sig);
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

}  // namespace lsl::test
