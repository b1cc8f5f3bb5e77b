#include "sim/event_queue.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/contract.hpp"

namespace lsl::sim {

EventId EventQueue::schedule_at(util::SimTime t, Callback cb) {
  // Both limits abort in every build (not only with contracts on): an
  // aliased slot or a wrapped sequence would silently misorder events.
  if (next_seq_ > (~std::uint64_t{0} >> kSlotBits)) {
    util::contract_fail("invariant", __FILE__, __LINE__, "next_seq_",
                        "event sequence exhausted");
  }
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slots_.size() > kSlotMask) {
      util::contract_fail("invariant", __FILE__, __LINE__, "slots_.size()",
                          "more events pending than the slot table holds");
    }
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  const EventId id = (next_seq_++ << kSlotBits) | slot;
  slots_[slot].id = id;
  slots_[slot].cb = std::move(cb);
  heap_.push(Key{std::max(t, now_), id});
  ++live_count_;
  return id;
}

EventId EventQueue::schedule_in(util::SimDuration delay, Callback cb) {
  return schedule_at(now_ + std::max<util::SimDuration>(delay, 0),
                     std::move(cb));
}

void EventQueue::release(std::uint32_t slot) {
  slots_[slot].id = kInvalidEvent;
  free_slots_.push_back(slot);
}

void EventQueue::cancel(EventId id) {
  // An id that never existed, has already fired, or whose slot now holds a
  // later event names no live slot: a no-op.
  const auto slot = static_cast<std::uint32_t>(id & kSlotMask);
  if (id == kInvalidEvent || slot >= slots_.size() || slots_[slot].id != id) {
    return;
  }
  // The heap key stays behind as a tombstone; the callback goes now. It is
  // destroyed after the bookkeeping, in case its captures reach back here.
  Callback dead;
  dead.swap(slots_[slot].cb);
  release(slot);
  --live_count_;
}

bool EventQueue::fire_next(util::SimTime deadline) {
  while (!heap_.empty()) {
    const Key top = heap_.top();
    const auto slot = static_cast<std::uint32_t>(top.id & kSlotMask);
    // Skip tombstones first: the deadline applies to the earliest *live*
    // event, or a tombstone due before it would let a later event run past
    // the deadline.
    if (slots_[slot].id != top.id) {
      heap_.pop();
      continue;
    }
    if (top.time > deadline) return false;
    heap_.pop();
    // Move the callback out before running it: it may schedule events and
    // so grow (reallocate) the slot table.
    Callback cb;
    cb.swap(slots_[slot].cb);
    release(slot);
    now_ = top.time;
    --live_count_;
    ++executed_;
    cb();
    return true;
  }
  return false;
}

bool EventQueue::step() {
  return fire_next(std::numeric_limits<util::SimTime>::max());
}

void EventQueue::run_until(util::SimTime deadline) {
  while (fire_next(deadline)) {
  }
  now_ = std::max(now_, deadline);
}

void EventQueue::run() {
  while (step()) {
  }
}

}  // namespace lsl::sim
