// The one timer queue: the simulator's clock, and each EpollEngine's
// timers (on CLOCK_MONOTONIC nanoseconds instead of simulated time).
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
// increasing in scheduling order (the tie-break). Each slot records where
// its key sits in the heap, so cancel() removes the key at once and the
// heap holds only events that can still fire.
//
// A component whose events come out in nondecreasing time order (a link's
// deliveries, a node's loopback hop, a depot's serial copy) owns an
// EventLane instead: one permanent callback and a FIFO of pending times, of
// which only the head's key sits in the heap. Every lane event still takes
// its sequence number when it is pushed, so it runs exactly when the same
// schedule_at() call would have run it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "util/ring.hpp"
#include "util/units.hpp"

namespace lsl::util {

/// Token identifying a scheduled event; usable to cancel it.
using EventId = std::uint64_t;

/// An EventId that never names a live event.
inline constexpr EventId kInvalidEvent = 0;

class EventLane;

/// Discrete-event priority queue with cancellation.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// The queue's time: the last event run or run_until() deadline
  /// (simulated time in the simulator). Advances only inside run(),
  /// run_until() and step().
  SimTime now() const { return now_; }

  /// Schedule `cb` at absolute time `t` (>= now, clamped otherwise).
  EventId schedule_at(SimTime t, Callback cb);

  /// Schedule `cb` after `delay` (>= 0, clamped otherwise).
  EventId schedule_in(SimDuration delay, Callback cb);

  /// Cancel a pending event. Cancelling an already-fired or invalid id is a
  /// harmless no-op, so callers don't have to track firing themselves.
  void cancel(EventId id);

  /// True if no runnable events remain.
  bool empty() const { return live_count_ == 0; }

  /// True once step() or run() has found nothing left to run, and nothing
  /// has run since: the run is over, not paused by run_until() nor inside
  /// its last event's callback.
  bool drained() const { return empty() && drained_at_ == executed_; }

  /// Number of pending events, lane events included.
  std::size_t size() const { return live_count_; }

  /// Instant of the earliest pending event; only meaningful when !empty().
  SimTime next_due() const { return heap_.front().time; }

  /// Execute the earliest pending event. Returns false if none remain.
  bool step();

  /// Run until the queue is empty or `deadline` is passed (events scheduled
  /// at exactly `deadline` still run). Time is left at the last executed
  /// event or at `deadline`, whichever is later.
  void run_until(SimTime deadline);

  /// Run until the queue drains completely.
  void run();

  /// Total events executed (diagnostics / micro-benchmarks).
  std::uint64_t executed_count() const { return executed_; }

 private:
  friend class EventLane;

  /// Low id bits naming the slot: up to 2^24 events pending at once.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;

  struct Key {
    SimTime time = 0;
    EventId id = kInvalidEvent;
  };
  struct Lane {
    Callback cb;
    Ring<Key> keys;  ///< pending events, FIFO; the front is in the heap
  };
  struct Slot {
    EventId id = kInvalidEvent;  ///< the live event here; kInvalidEvent if free
    Callback cb;
    /// Set while the slot is a lane's. Behind a pointer, so a running lane
    /// callback stays put while the slot table grows.
    std::unique_ptr<Lane> lane;
  };

  /// Take a free slot (growing the table when none is free).
  std::uint32_t acquire_slot();
  /// Return a slot to the free list.
  void release(std::uint32_t slot);
  /// A fresh id in `slot`: the next sequence number.
  EventId next_id(std::uint32_t slot);

  // The indexed binary heap: pos_[slot] is the heap index of the slot's
  // key, kept beside (not in) the slot table so sifts touch little memory.
  static bool before(const Key& a, const Key& b) {
    return a.time != b.time ? a.time < b.time : a.id < b.id;
  }
  void place(std::size_t i, const Key& k) {
    heap_[i] = k;
    pos_[k.id & kSlotMask] = static_cast<std::uint32_t>(i);
  }
  void sift_up(std::size_t i, Key k);
  /// Put `k` where heap index `i` was: the hole sinks to a leaf along the
  /// smaller children, then `k` rises from there (one comparison a level
  /// on the way down, and a new key rarely rises far).
  void replace(std::size_t i, Key k);
  void heap_push(const Key& k);
  void heap_erase(std::size_t i);

  // EventLane's interface; a lane is named by its slot.
  std::uint32_t add_lane(Callback cb);
  void push_lane(std::uint32_t slot, SimTime t);
  void remove_lane(std::uint32_t slot);

  /// Run the earliest event if it is due by `deadline`; false when none
  /// is. The one pop path behind step() and run_until().
  bool fire_next(SimTime deadline);

  std::vector<Key> heap_;
  std::vector<std::uint32_t> pos_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;  ///< never 0, so no id is kInvalidEvent
  std::size_t live_count_ = 0;
  std::uint64_t executed_ = 0;
  /// executed_ when step() last found nothing to run; never a count yet.
  std::uint64_t drained_at_ = ~std::uint64_t{0};
};

/// A FIFO lane of events on one EventQueue, all running one callback.
///
/// The owner pushes times in nondecreasing order; each becomes one run of
/// the callback, ordered against every other event exactly as schedule_at()
/// at the moment of the push would have ordered it. Lane events cannot be
/// cancelled. Destroying the lane drops its pending events unrun, so an
/// owner that holds its lane as a member never has an event outlive it. A
/// lane must not be destroyed from inside its own callback, nor outlive its
/// queue.
class EventLane {
 public:
  EventLane(EventQueue& q, EventQueue::Callback cb)
      : q_(q), slot_(q.add_lane(std::move(cb))) {}
  ~EventLane() { q_.remove_lane(slot_); }

  EventLane(const EventLane&) = delete;
  EventLane& operator=(const EventLane&) = delete;

  /// Run the callback at absolute time `t` (>= now, clamped otherwise; not
  /// before the lane's last pending event).
  void push_at(SimTime t) { q_.push_lane(slot_, t); }

  /// Run the callback after `delay` (>= 0, clamped otherwise).
  void push_in(SimDuration delay) {
    push_at(q_.now() + (delay > 0 ? delay : 0));
  }

 private:
  EventQueue& q_;
  std::uint32_t slot_;
};

}  // namespace lsl::util
