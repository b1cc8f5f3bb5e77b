// Scripted fault injection against a live lsd daemon — the real-socket
// counterpart of fault::FaultInjector, sharing the same FaultPlan grammar
// (`lsd --fault-spec=...`). Time-keyed events are measured on a steady
// clock from arm(); byte-keyed events ride the daemon's on_progress hook.
//
// The driver has no thread of its own: the host's event loop drives it by
// calling poll() after every EpollEngine::run_once(), bounding the wait with
// next_timeout_ms() so due events fire promptly. poll() also expires the
// daemon's parked sessions, which an idle epoll loop would never revisit.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "fault/fault_metrics.hpp"
#include "fault/spec.hpp"
#include "posix/lsd.hpp"

namespace lsl::posix {

/// Applies a FaultPlan to one depot: a single Lsd, or every shard of one.
class LsdFaultDriver {
 public:
  /// Turns one daemon knob (`knob(daemon)`) on every daemon of the depot.
  using EachDaemon = std::function<void(const std::function<void(Lsd&)>&)>;

  /// Events targeting any depot name apply to `lsd` — a single daemon
  /// cannot tell depot names apart; run one driver per daemon with a
  /// pre-filtered plan when cascading several. `metrics` (optional) gets
  /// the `fault.*` instruments; must outlive the driver.
  LsdFaultDriver(Lsd& lsd, fault::FaultPlan plan,
                 fault::FaultMetrics* metrics = nullptr);

  /// A depot of several daemons (the shards of one ShardedLsd), driven
  /// from `lead`'s loop thread. Each event fires once and turns its knob
  /// on every daemon through `each`; byte-keyed events fire on the
  /// depot-wide counts the owner passes to on_bytes(), so arm() installs
  /// no progress hook.
  LsdFaultDriver(Lsd& lead, EachDaemon each, fault::FaultPlan plan);
  ~LsdFaultDriver();

  LsdFaultDriver(const LsdFaultDriver&) = delete;
  LsdFaultDriver& operator=(const LsdFaultDriver&) = delete;

  /// Start the clock and install the byte-offset hook.
  void arm();

  /// Milliseconds until the next due deadline — the sooner of this plan's
  /// time-keyed events and the daemon's own wheel (liveness deadlines,
  /// park expiries, the drain bound) — 0 when one is already overdue, or
  /// -1 when nothing is scheduled anywhere. Feed to EpollEngine::run_once
  /// so the loop wakes in time.
  int next_timeout_ms() const;

  /// Apply every due event; call after each run_once().
  void poll();

  /// Apply every pending byte-keyed event due at `bytes_relayed`.
  void on_bytes(std::uint64_t bytes_relayed);

  /// The smallest relayed-byte count at which a pending byte-keyed event
  /// fires; UINT64_MAX when none is pending.
  std::uint64_t next_byte_trigger() const;

  /// Faults applied so far (repairs — restarts, unstalls — not counted).
  std::uint64_t injected() const { return injected_; }

 private:
  struct Pending {
    std::chrono::steady_clock::time_point due;
    fault::FaultEvent event;
    bool repair = false;  ///< restore action (restart / unstall)
  };

  void apply(const fault::FaultEvent& e);
  void apply_repair(const fault::FaultEvent& e);
  void note_injected(fault::FaultKind kind);
  /// Turn `knob` on every daemon of the depot.
  void each(const std::function<void(Lsd&)>& knob);

  Lsd& lsd_;
  EachDaemon each_;  ///< empty: the depot is lsd_ alone
  fault::FaultPlan plan_;
  fault::FaultMetrics* metrics_;
  std::chrono::steady_clock::time_point start_;
  std::vector<Pending> timed_;
  std::vector<fault::FaultEvent> by_bytes_;
  std::uint64_t injected_ = 0;
  bool armed_ = false;
};

}  // namespace lsl::posix
