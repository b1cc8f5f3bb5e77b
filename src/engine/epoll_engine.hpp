// Single-threaded epoll event engine with an eventfd wakeup channel.
//
// Everything real-socket in the repository — the lsd daemon, the posix
// client and sink, the admin socket, timers — runs on this engine, so a
// whole relay chain (client, several depots, sink) can run in one process
// over loopback, mirroring how the simulated apps share one event queue.
// Each daemon shard owns one EpollEngine.
//
// Threading contract: every method except wakeup() must be called from
// the thread that drives run()/run_once() — the engine is the shard's
// single-threaded heart, and the sharded runtime (posix::ShardedLsd)
// gets work onto it by posting closures and calling wakeup() from
// outside.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "engine/fd.hpp"
#include "metrics/instruments.hpp"

namespace lsl::engine {

/// Level-triggered epoll wrapper: a callback fires as long as the fd stays
/// ready for its interest mask.
class EpollEngine {
 public:
  /// Callback receives the ready EPOLL* event mask.
  using IoCallback = std::function<void(std::uint32_t events)>;

  EpollEngine();

  EpollEngine(const EpollEngine&) = delete;
  EpollEngine& operator=(const EpollEngine&) = delete;

  /// Register `fd` for `events` (EPOLLIN/EPOLLOUT/...). The callback stays
  /// installed until remove().
  void add(int fd, std::uint32_t events, IoCallback cb);
  /// Change the interest mask of a registered fd.
  void modify(int fd, std::uint32_t events);
  /// Deregister; safe to call from inside the fd's own callback.
  void remove(int fd);
  /// Dispatch ready events once, waiting up to `timeout_ms` (-1 = forever).
  /// Returns the number of events handled, or -1 on EINTR.
  int run_once(int timeout_ms = -1);
  /// Loop until stop() is called or no fds remain registered (the wakeup
  /// eventfd does not count as registered).
  void run();
  /// Make run() return after the current dispatch round.
  void stop() { stopped_ = true; }

  /// Registered fds, excluding the internal wakeup eventfd.
  std::size_t watched_count() const {
    return callbacks_.size() - (wakeup_fd_.valid() ? 1u : 0u);
  }

  /// Attach a metrics bundle (must outlive the engine's use); null
  /// detaches. Dispatch timing is only measured while a bundle is
  /// attached, so the unmetered engine pays no clock_gettime cost.
  void set_metrics(metrics::LoopMetrics* m) { metrics_ = m; }

  /// Thread-safe: make the dispatch thread wake from a blocking run_once()
  /// and invoke the wakeup callback (if set). Wakeups coalesce — N calls
  /// may produce one callback invocation.
  void wakeup();
  /// Install the closure the dispatch thread runs on wakeup (typically:
  /// drain a cross-thread post queue). Must be set before other threads
  /// may call wakeup().
  void set_wakeup_callback(std::function<void()> cb) {
    on_wakeup_ = std::move(cb);
  }

 private:
  void drain_wakeup();

  Fd epoll_;
  Fd wakeup_fd_;
  std::unordered_map<int, IoCallback> callbacks_;
  std::function<void()> on_wakeup_;
  metrics::LoopMetrics* metrics_ = nullptr;
  bool stopped_ = false;
};

}  // namespace lsl::engine
