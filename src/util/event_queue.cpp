#include "util/event_queue.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/contract.hpp"

namespace lsl::util {

std::uint32_t EventQueue::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  // Aborts in every build (not only with contracts on): an aliased slot
  // would silently misorder events.
  if (slots_.size() > kSlotMask) {
    contract_fail("invariant", __FILE__, __LINE__, "slots_.size()",
                        "more events pending than the slot table holds");
  }
  slots_.emplace_back();
  pos_.push_back(0);
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release(std::uint32_t slot) {
  slots_[slot].id = kInvalidEvent;
  free_slots_.push_back(slot);
}

EventId EventQueue::next_id(std::uint32_t slot) {
  // Aborts in every build: a wrapped sequence would misorder events.
  if (next_seq_ > (~std::uint64_t{0} >> kSlotBits)) {
    contract_fail("invariant", __FILE__, __LINE__, "next_seq_",
                        "event sequence exhausted");
  }
  return (next_seq_++ << kSlotBits) | slot;
}

void EventQueue::sift_up(std::size_t i, Key k) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(k, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, k);
}

void EventQueue::replace(std::size_t i, Key k) {
  const std::size_t n = heap_.size();
  for (std::size_t child = 2 * i + 1; child < n; child = 2 * i + 1) {
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    place(i, heap_[child]);
    i = child;
  }
  sift_up(i, k);
}

void EventQueue::heap_push(const Key& k) {
  heap_.push_back(k);
  sift_up(heap_.size() - 1, k);
}

void EventQueue::heap_erase(std::size_t i) {
  const Key last = heap_.back();
  heap_.pop_back();
  if (i < heap_.size()) replace(i, last);
}

EventId EventQueue::schedule_at(SimTime t, Callback cb) {
  const std::uint32_t slot = acquire_slot();
  const EventId id = next_id(slot);
  slots_[slot].id = id;
  slots_[slot].cb = std::move(cb);
  heap_push(Key{std::max(t, now_), id});
  ++live_count_;
  return id;
}

EventId EventQueue::schedule_in(SimDuration delay, Callback cb) {
  return schedule_at(now_ + std::max<SimDuration>(delay, 0),
                     std::move(cb));
}

void EventQueue::cancel(EventId id) {
  // An id that never existed, has already fired, or whose slot now holds a
  // later event names no live slot: a no-op. Lane slots never hold an id,
  // so lane events cannot be cancelled.
  const auto slot = static_cast<std::uint32_t>(id & kSlotMask);
  if (id == kInvalidEvent || slot >= slots_.size() || slots_[slot].id != id) {
    return;
  }
  heap_erase(pos_[slot]);
  // The callback is destroyed after the bookkeeping, in case its captures
  // reach back here.
  Callback dead;
  dead.swap(slots_[slot].cb);
  release(slot);
  --live_count_;
}

std::uint32_t EventQueue::add_lane(Callback cb) {
  const std::uint32_t slot = acquire_slot();
  slots_[slot].lane = std::make_unique<Lane>();
  slots_[slot].lane->cb = std::move(cb);
  return slot;
}

void EventQueue::push_lane(std::uint32_t slot, SimTime t) {
  Lane& l = *slots_[slot].lane;
  const Key k{std::max(t, now_), next_id(slot)};
  LSL_INVARIANT(l.keys.empty() || l.keys.back().time <= k.time,
                "lane events must be pushed in time order");
  l.keys.push_back(k);
  if (l.keys.size() == 1) heap_push(k);
  ++live_count_;
}

void EventQueue::remove_lane(std::uint32_t slot) {
  const Lane& l = *slots_[slot].lane;
  if (!l.keys.empty()) heap_erase(pos_[slot]);
  live_count_ -= l.keys.size();
  slots_[slot].lane.reset();
  release(slot);
}

bool EventQueue::fire_next(SimTime deadline) {
  if (heap_.empty() || heap_.front().time > deadline) return false;
  const Key top = heap_.front();
  const auto slot = static_cast<std::uint32_t>(top.id & kSlotMask);
  now_ = top.time;
  --live_count_;
  ++executed_;
  if (Lane* lane = slots_[slot].lane.get()) {
    // Refill in place: the lane's next key replaces the one firing.
    lane->keys.pop_front();
    if (lane->keys.empty()) {
      heap_erase(0);
    } else {
      replace(0, lane->keys.front());
    }
    lane->cb();
    return true;
  }
  heap_erase(0);
  // Move the callback out before running it: it may schedule events and
  // so grow (reallocate) the slot table.
  Callback cb;
  cb.swap(slots_[slot].cb);
  release(slot);
  cb();
  return true;
}

bool EventQueue::step() {
  if (fire_next(std::numeric_limits<SimTime>::max())) return true;
  drained_at_ = executed_;
  return false;
}

void EventQueue::run_until(SimTime deadline) {
  while (fire_next(deadline)) {
  }
  now_ = std::max(now_, deadline);
}

void EventQueue::run() {
  while (step()) {
  }
}

}  // namespace lsl::util
