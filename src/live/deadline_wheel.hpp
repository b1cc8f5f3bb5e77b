// DeadlineWheel — a deterministic, cancellable timer queue shared by the
// simulator and the real-socket daemon.
//
// The wheel is clock-agnostic: deadlines are int64 nanosecond instants on
// whatever timebase the host supplies (util::SimTime in the simulator,
// steady-clock nanoseconds in the posix daemon). The host drives it in one
// of two ways:
//
//  * pull — ask `next_timeout_ms(now)` how long the host may sleep (the
//    epoll_wait / LsdFaultDriver convention: -1 = nothing scheduled,
//    0 = something already due), then call `fire_due(now)` after waking;
//  * push — schedule one host-side wakeup (a sim event or a timerfd) at
//    `next_due()` and call `fire_due(now)` when it lands, re-arming when
//    the earliest deadline changes.
//
// Expiry order is deterministic: by due instant, ties broken by schedule
// order (monotonic token). No wall clock is ever read here, so the same
// schedule of calls produces the same expiries on any machine — the
// property the same-seed chaos tests rely on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>

namespace lsl::live {

class DeadlineWheel {
 public:
  /// Handle for cancellation. 0 never names a live deadline.
  using Token = std::uint64_t;
  static constexpr Token kInvalidToken = 0;

  using Callback = std::function<void()>;

  /// Arm a deadline at absolute instant `due` (host timebase, ns).
  /// The callback runs from fire_due(); it may schedule or cancel freely.
  Token schedule(std::int64_t due, Callback cb);

  /// Disarm a pending deadline. Returns false if the token is unknown —
  /// already fired, already cancelled, or kInvalidToken (all benign, so
  /// holders can cancel unconditionally).
  bool cancel(Token token);

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }

  /// Earliest due instant; only meaningful when !empty().
  std::int64_t next_due() const { return queue_.begin()->first.first; }

  /// Milliseconds a host may block before the next deadline is due:
  /// -1 when nothing is scheduled, 0 when a deadline is already due at
  /// `now`, otherwise the remaining time rounded up to whole ms (so a
  /// host that sleeps the full bound never wakes early).
  int next_timeout_ms(std::int64_t now) const;

  /// Run every deadline with due <= now, in deterministic order. Returns
  /// the number fired. Reentrant-safe: each callback is detached from the
  /// queue before it runs.
  std::size_t fire_due(std::int64_t now);

 private:
  using Key = std::pair<std::int64_t, Token>;  // (due, token)
  std::map<Key, Callback> queue_;
  std::map<Token, std::int64_t> due_by_token_;
  Token next_token_ = 1;
};

}  // namespace lsl::live
