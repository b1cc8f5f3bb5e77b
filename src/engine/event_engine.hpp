// EventEngine: the backend seam between the daemon and the kernel.
//
// Everything real-socket in the repository — the lsd daemon, the posix
// client and sink, the admin socket, timers — is written against this
// interface rather than a concrete epoll loop. The contract is small on
// purpose: readiness callbacks on registered fds, one blocking dispatch
// primitive, and a thread-safe wakeup. That is exactly the surface an
// io_uring backend can also provide (submit POLL_ADD SQEs instead of
// epoll_ctl, reap CQEs instead of epoll_wait, post a NOP SQE for wakeup),
// so a second backend can implement it without touching the daemon. The
// one backend is EpollEngine (engine/epoll_engine.hpp), the epoll+eventfd
// loop the daemon has always run on; callers construct it directly.
//
// Threading contract: every method except wakeup() must be called from
// the thread that drives run()/run_once() — the engine is the shard's
// single-threaded heart, and the sharded runtime (posix::ShardedLsd)
// gets work onto it by posting closures and calling wakeup() from
// outside. wakeup() is async-signal-unsafe but thread-safe.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>

#include "metrics/instruments.hpp"

namespace lsl::engine {

/// Abstract readiness-event backend. Level-triggered semantics: a
/// callback fires as long as the fd stays ready for its interest mask.
class EventEngine {
 public:
  /// Callback receives the ready EPOLL* event mask.
  using IoCallback = std::function<void(std::uint32_t events)>;

  EventEngine() = default;
  virtual ~EventEngine() = default;

  EventEngine(const EventEngine&) = delete;
  EventEngine& operator=(const EventEngine&) = delete;

  /// Backend identifier ("epoll", later "io_uring").
  virtual std::string_view backend_name() const = 0;

  /// Register `fd` for `events` (EPOLLIN/EPOLLOUT/...). The callback stays
  /// installed until remove().
  virtual void add(int fd, std::uint32_t events, IoCallback cb) = 0;

  /// Change the interest mask of a registered fd.
  virtual void modify(int fd, std::uint32_t events) = 0;

  /// Deregister; safe to call from inside the fd's own callback.
  virtual void remove(int fd) = 0;

  /// Dispatch ready events once, waiting up to `timeout_ms` (-1 = forever).
  /// Returns the number of events handled, or -1 on EINTR.
  virtual int run_once(int timeout_ms = -1) = 0;

  /// Loop until stop() is called or no fds remain registered (the
  /// engine's own wakeup descriptor does not count as registered).
  virtual void run() = 0;

  /// Make run() return after the current dispatch round.
  virtual void stop() = 0;

  /// Registered fds, excluding engine-internal descriptors.
  virtual std::size_t watched_count() const = 0;

  /// Attach a metrics bundle (must outlive the engine's use); null
  /// detaches. Dispatch timing is only measured while a bundle is
  /// attached, so the unmetered engine pays no clock_gettime cost.
  virtual void set_metrics(metrics::LoopMetrics* m) = 0;

  /// Thread-safe: make the engine's dispatch thread wake from a blocking
  /// run_once() and invoke the wakeup callback (if set). Coalescing is
  /// allowed — N wakeups may produce one callback invocation.
  virtual void wakeup() = 0;

  /// Install the closure the dispatch thread runs on wakeup (typically:
  /// drain a cross-thread post queue). Must be set before other threads
  /// may call wakeup(); runs on the dispatch thread.
  virtual void set_wakeup_callback(std::function<void()> cb) = 0;
};

}  // namespace lsl::engine
