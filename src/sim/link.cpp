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
      delivered_(sim.events(), [this] { deliver_front(); }) {}

void Link::send(Packet&& p) {
  // Retire the packets that left before now. One departing at exactly now
  // still holds its place, as if its departure were an event scheduled when
  // it began serializing: what else runs at this instant (a delivery, a
  // timer) was scheduled a propagation delay or more ahead, so it ran first.
  const util::SimTime now = sim_.now();
  while (!departures_.empty() && departures_.front().at < now) {
    count_departure(departures_.pop_front(), stats_);
  }
  const std::size_t size = p.wire_bytes();
  const std::size_t queued = accepted_bytes_ - stats_.bytes_sent + size;
  // An idle link always accepts, however large the packet.
  if (!departures_.empty() && queued > config_.queue_bytes) {
    ++stats_.drops_queue;
    return;
  }
  accepted_bytes_ += size;
  stats_.max_queue_bytes = std::max(stats_.max_queue_bytes, queued);
  // Serialization starts when the packet ahead has left, or now.
  const util::SimTime start = departures_.empty() ? now : departures_.back().at;
  const util::SimTime depart = start + config_.rate.transmission_time(size);
  // Loss, then jitter for a survivor: the link's own RNG in packet order.
  const bool lost = wire_drops();
  departures_.push_back({depart, size, lost});
  if (lost) return;
  util::SimTime arrive = depart + config_.delay;
  if (config_.jitter > 0) {
    arrive += static_cast<util::SimDuration>(
        rng_.uniform(0.0, static_cast<double>(config_.jitter)));
  }
  // A physical link is FIFO: jitter may stretch delays but never reorder.
  last_delivery_ = std::max(arrive, last_delivery_);
  fifo_.push_back(std::move(p));
  delivered_.push_at(last_delivery_);
}

std::size_t Link::departed() const {
  if (sim_.events().drained()) return departures_.size();
  std::size_t n = 0;
  while (n < departures_.size() && departures_[n].at < sim_.now()) ++n;
  return n;
}

void Link::count_departure(const Departure& d, LinkStats& stats) {
  ++stats.packets_sent;
  stats.bytes_sent += d.bytes;
  if (d.lost) ++stats.drops_wire;
}

LinkStats Link::stats() const {
  LinkStats s = stats_;
  for (std::size_t i = 0, n = departed(); i < n; ++i) {
    count_departure(departures_[i], s);
  }
  return s;
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

void Link::deliver_front() { deliver_(fifo_.pop_front()); }

}  // namespace lsl::sim
