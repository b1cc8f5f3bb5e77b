// The discrete-event engine.
//
// A cancellable min-heap of (time, sequence) keyed events. Ties in time are
// broken by insertion order, which — together with integral nanosecond
// timestamps and explicitly seeded RNG streams — makes every simulation in
// this repository bit-for-bit reproducible.
//
// The heap holds plain {time, id} keys; callbacks live in a slot table that
// the id indexes, and freed slots are reused, so the per-event path neither
// hashes nor allocates once the table has grown to the run's peak. An id is
// (sequence << kSlotBits) | slot: the sequence keeps ids strictly
// increasing in scheduling order (the tie-break), and a heap key whose id no
// longer matches its slot — cancelled, or the slot reused since — is a
// tombstone skipped when it surfaces.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "util/units.hpp"

namespace lsl::sim {

/// Token identifying a scheduled event; usable to cancel it.
using EventId = std::uint64_t;

/// An EventId that never names a live event.
inline constexpr EventId kInvalidEvent = 0;

/// Discrete-event priority queue with cancellation.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Current simulated time. Advances only inside run()/step().
  util::SimTime now() const { return now_; }

  /// Schedule `cb` at absolute time `t` (>= now, clamped otherwise).
  EventId schedule_at(util::SimTime t, Callback cb);

  /// Schedule `cb` after `delay` (>= 0, clamped otherwise).
  EventId schedule_in(util::SimDuration delay, Callback cb);

  /// Cancel a pending event. Cancelling an already-fired or invalid id is a
  /// harmless no-op, so callers don't have to track firing themselves.
  void cancel(EventId id);

  /// True if no runnable events remain.
  bool empty() const { return live_count_ == 0; }

  /// Number of pending (non-cancelled) events.
  std::size_t size() const { return live_count_; }

  /// Execute the earliest pending event. Returns false if none remain.
  bool step();

  /// Run until the queue is empty or `deadline` is passed (events scheduled
  /// at exactly `deadline` still run). Time is left at the last executed
  /// event or at `deadline`, whichever is later.
  void run_until(util::SimTime deadline);

  /// Run until the queue drains completely.
  void run();

  /// Total events executed (diagnostics / micro-benchmarks).
  std::uint64_t executed_count() const { return executed_; }

 private:
  /// Low id bits naming the slot: up to 2^24 events pending at once.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;

  struct Key {
    util::SimTime time;
    EventId id;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };
  struct Slot {
    EventId id = kInvalidEvent;  ///< the live event here; kInvalidEvent if free
    Callback cb;
  };

  /// Return a slot to the free list.
  void release(std::uint32_t slot);

  /// Run the earliest live event if it is due by `deadline`; false when
  /// none is. The one pop path behind step() and run_until().
  bool fire_next(util::SimTime deadline);

  std::priority_queue<Key, std::vector<Key>, Later> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  util::SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;  ///< never 0, so no id is kInvalidEvent
  std::size_t live_count_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace lsl::sim
