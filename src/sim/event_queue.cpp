#include "sim/event_queue.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace lsl::sim {

EventId EventQueue::schedule_at(util::SimTime t, Callback cb) {
  const EventId id = next_id_++;
  heap_.push(Entry{std::max(t, now_), id, std::move(cb)});
  pending_.insert(id);
  ++live_count_;
  return id;
}

EventId EventQueue::schedule_in(util::SimDuration delay, Callback cb) {
  return schedule_at(now_ + std::max<util::SimDuration>(delay, 0),
                     std::move(cb));
}

void EventQueue::cancel(EventId id) {
  // Cancelling an id that never existed or has already fired is a no-op.
  if (pending_.erase(id) == 0) return;
  // We cannot cheaply remove from the heap; remember the id and skip it at
  // pop time. The tombstone is erased when the entry surfaces.
  cancelled_.insert(id);
  --live_count_;
}

bool EventQueue::fire_next(util::SimTime deadline) {
  while (!heap_.empty()) {
    // Skip cancelled tops first: the deadline applies to the earliest
    // *live* event, or a tombstone due before it would let a later event
    // run past the deadline.
    const auto it = cancelled_.find(heap_.top().id);
    if (it != cancelled_.end()) {
      cancelled_.erase(it);
      heap_.pop();
      continue;
    }
    if (heap_.top().time > deadline) return false;
    // priority_queue::top() is const; moving the callback out is safe
    // because the entry is popped immediately after.
    Entry& top = const_cast<Entry&>(heap_.top());
    Entry e{top.time, top.id, std::move(top.cb)};
    heap_.pop();
    now_ = e.time;
    pending_.erase(e.id);
    --live_count_;
    ++executed_;
    e.cb();
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
