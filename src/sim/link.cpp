#include "sim/link.hpp"

#include <algorithm>
#include <utility>

namespace lsl::sim {

Link::Link(Simulator& sim, std::string name, const LinkConfig& config,
           DeliverFn deliver)
    : sim_(sim),
      name_(std::move(name)),
      config_(config),
      deliver_(std::move(deliver)),
      rng_(sim.make_rng()),
      transmit_done_(sim.events(), [this] { finish_transmission(); }),
      delivered_(sim.events(), [this] { deliver_front(); }) {}

void Link::send(Packet&& p) {
  const std::size_t size = p.wire_bytes();
  const bool idle = fifo_.size() == on_wire_;
  if (queued_bytes_ + size > config_.queue_bytes && !idle) {
    ++stats_.drops_queue;
    return;
  }
  queued_bytes_ += size;
  stats_.max_queue_bytes = std::max(stats_.max_queue_bytes, queued_bytes_);
  Entry& e = fifo_.push_back_slot();
  e.packet = std::move(p);
  e.lost = false;
  if (idle) start_transmission();
}

void Link::start_transmission() {
  if (fifo_.size() == on_wire_) return;
  const Packet& head = fifo_[on_wire_].packet;
  const util::SimDuration tx = config_.rate.transmission_time(head.wire_bytes());
  transmit_done_.push_in(tx);
}

bool Link::wire_drops() {
  if (config_.gilbert_elliott) {
    // State transition is evaluated per packet, then loss is drawn from the
    // current state's loss probability.
    if (ge_bad_state_) {
      if (rng_.bernoulli(config_.ge_bad_to_good)) ge_bad_state_ = false;
    } else {
      if (rng_.bernoulli(config_.ge_good_to_bad)) ge_bad_state_ = true;
    }
    const double p_loss =
        ge_bad_state_ ? config_.ge_loss_bad : config_.ge_loss_good;
    return rng_.bernoulli(p_loss);
  }
  return rng_.bernoulli(config_.loss_rate);
}

void Link::finish_transmission() {
  Entry& e = fifo_[on_wire_++];
  const std::size_t size = e.packet.wire_bytes();
  queued_bytes_ -= size;

  ++stats_.packets_sent;
  stats_.bytes_sent += size;

  if (wire_drops()) {
    ++stats_.drops_wire;
    e.lost = true;
    drop_lost_front();
  } else {
    util::SimDuration prop = config_.delay;
    if (config_.jitter > 0) {
      prop += static_cast<util::SimDuration>(
          rng_.uniform(0.0, static_cast<double>(config_.jitter)));
    }
    // A physical link is FIFO: jitter may stretch delays but never reorder.
    util::SimTime deliver_at = sim_.now() + prop;
    deliver_at = std::max(deliver_at, last_delivery_);
    last_delivery_ = deliver_at;
    delivered_.push_at(deliver_at);
  }

  start_transmission();
}

void Link::drop_lost_front() {
  while (on_wire_ > 0 && fifo_.front().lost) {
    fifo_.pop_front();
    --on_wire_;
  }
}

void Link::deliver_front() {
  // Each delivery event belongs to the oldest unlost packet on the wire,
  // and losses ahead of it were dropped as soon as they reached the front.
  Entry e = fifo_.pop_front();
  --on_wire_;
  drop_lost_front();
  deliver_(std::move(e.packet));
}

}  // namespace lsl::sim
