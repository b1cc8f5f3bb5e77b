// timerfd wrapper: turns a DeadlineWheel due-instant into an engine wakeup.
//
// The daemon's deadlines must fire even when no socket is ready — a silent
// peer generates no events, which is exactly the case liveness exists to
// catch. An EngineTimer registers in the same EpollEngine as the sockets;
// arming it at the wheel's next_due() makes the engine's plain run() wake
// for deadlines with no host-side polling and no computed-timeout plumbing.
// Each daemon (shard) owns its own timer, so several daemons can share one
// engine in single-threaded tests.
#pragma once

#include <cstdint>
#include <functional>

#include "engine/epoll_engine.hpp"
#include "engine/fd.hpp"

namespace lsl::engine {

/// A CLOCK_MONOTONIC timerfd registered in an EpollEngine.
class EngineTimer {
 public:
  /// Creates the timerfd (disarmed) and registers it for EPOLLIN; `on_fire`
  /// runs whenever the armed instant passes. Throws std::system_error if
  /// the timer cannot be created.
  EngineTimer(EpollEngine& engine, std::function<void()> on_fire);
  ~EngineTimer();

  EngineTimer(const EngineTimer&) = delete;
  EngineTimer& operator=(const EngineTimer&) = delete;

  /// Current CLOCK_MONOTONIC time in nanoseconds — the timebase armed
  /// instants are expressed in (and the one the daemon's DeadlineWheel
  /// runs on).
  static std::int64_t now_ns();

  /// Arm (or re-arm) for absolute monotonic instant `due_ns`; an instant
  /// at or before now fires on the next loop turn. Arming at the instant
  /// already armed is a no-op (skips the syscall).
  void arm(std::int64_t due_ns);

  /// Disarm without unregistering.
  void disarm();

  bool armed() const { return armed_; }
  int fd() const { return fd_.get(); }

 private:
  void on_readable();

  EpollEngine& engine_;
  Fd fd_;
  std::function<void()> on_fire_;
  bool armed_ = false;
  std::int64_t armed_due_ = 0;
};

}  // namespace lsl::engine
