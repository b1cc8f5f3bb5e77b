// Scripted fault injection against a live lsd depot — the real-socket
// counterpart of fault::FaultInjector, sharing the same FaultPlan grammar
// (`lsd --fault-spec=...`). A depot is the shards of one ShardedLsd, which
// owns the driver and runs it on its lead shard's thread.
//
// Time-keyed events and their repairs (restart after `for=`, unstall,
// un-blackhole) are timers on the lead shard's engine, measured from
// arm(): the shard just blocks in epoll, with nothing to poll. Byte-keyed
// events fire when the owner reports the depot's relayed bytes through
// on_bytes().
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "engine/epoll_engine.hpp"
#include "fault/fault_metrics.hpp"
#include "fault/spec.hpp"
#include "posix/lsd.hpp"

namespace lsl::posix {

/// Applies a FaultPlan to one depot of one or more daemons.
class LsdFaultDriver {
 public:
  /// Turns one daemon knob (`knob(daemon)`) on every daemon of the depot.
  using EachDaemon = std::function<void(const std::function<void(Lsd&)>&)>;

  /// `lead` is the depot's first daemon and `engine` the engine it runs
  /// on; the driver's timers live there, so every event runs on that
  /// engine's thread. Each event fires once and turns its knob on every
  /// daemon through `each` — except `syndrop`, whose count goes to `lead`
  /// alone: the depot's daemons share one accept-drop count
  /// (Lsd::share_accept_drops). Events target the depot whatever depot
  /// name they carry. `metrics` (optional) gets the `fault.*`
  /// instruments; it must outlive the driver.
  LsdFaultDriver(Lsd& lead, engine::EpollEngine& engine, EachDaemon each,
                 fault::FaultPlan plan, fault::FaultMetrics* metrics);

  ~LsdFaultDriver();

  LsdFaultDriver(const LsdFaultDriver&) = delete;
  LsdFaultDriver& operator=(const LsdFaultDriver&) = delete;

  /// Start the clock and schedule the plan. Events due at once (`at=0s`)
  /// apply before arm() returns.
  void arm();

  /// Apply every pending byte-keyed event due at `bytes_relayed`.
  void on_bytes(std::uint64_t bytes_relayed);

  /// The smallest relayed-byte count at which a pending byte-keyed event
  /// fires; UINT64_MAX when none is pending.
  std::uint64_t next_byte_trigger() const;

  /// Faults applied so far (repairs — restarts, unstalls — not counted).
  std::uint64_t injected() const { return injected_; }

 private:
  void apply(const fault::FaultEvent& e);
  void apply_repair(const fault::FaultEvent& e);
  /// Repair `e` once its `for=` window has passed.
  void schedule_repair(const fault::FaultEvent& e);
  void note_injected(fault::FaultKind kind);

  Lsd& lead_;
  engine::EpollEngine& engine_;
  EachDaemon each_;
  fault::FaultPlan plan_;
  fault::FaultMetrics* metrics_;
  std::int64_t start_ns_ = 0;
  /// Every timer scheduled, so the destructor can disarm the pending ones.
  std::vector<util::EventId> timers_;
  std::vector<fault::FaultEvent> by_bytes_;
  std::uint64_t injected_ = 0;
};

}  // namespace lsl::posix
