// DeadlineWheel — a deterministic, cancellable timer queue shared by the
// simulator and the real-socket daemon.
//
// The wheel is clock-agnostic: deadlines are int64 nanosecond instants on
// whatever timebase the host supplies (util::SimTime in the simulator,
// CLOCK_MONOTONIC nanoseconds in the posix daemon). The host schedules one
// wakeup of its own (a sim event, or an engine::EngineTimer) at
// `next_due()`, calls `fire_due(now)` when it lands, and re-arms whenever
// the earliest deadline changes.
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
