// Unidirectional point-to-point link with a drop-tail output queue.
//
// The link models exactly the mechanisms the paper's analysis depends on:
// serialization delay (rate), propagation delay (+ optional jitter),
// finite buffering (drop-tail queue in bytes), and packet loss — either
// i.i.d. Bernoulli (WAN background loss) or a two-state Gilbert–Elliott
// process (bursty 802.11b loss in the wireless case).
//
// The rate is constant, so a packet's departure is known when it is
// enqueued: send() makes the drop-tail decision, draws loss and then jitter
// from the link's own RNG in packet order, and schedules the delivery at
// once. A packet costs one event, its delivery, and none if the queue or
// the wire drops it. The queue itself is a ring of {departure, bytes, lost}
// records that send() retires against the clock; stats() and queued_bytes()
// read it as of now().
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/packet.hpp"
#include "sim/simulator.hpp"
#include "util/ring.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace lsl::sim {

/// Static configuration of one link direction.
struct LinkConfig {
  util::DataRate rate = util::DataRate::mbps(100);  ///< line rate
  util::SimDuration delay = util::millis(1);        ///< propagation delay
  std::size_t queue_bytes = 256 * util::kKiB;       ///< drop-tail buffer
  double loss_rate = 0.0;            ///< Bernoulli per-packet wire loss
  util::SimDuration jitter = 0;      ///< uniform extra delay in [0, jitter]

  /// Gilbert–Elliott burst-loss model; when enabled, `loss_rate` is ignored.
  bool gilbert_elliott = false;
  double ge_good_to_bad = 0.0;  ///< per-packet P(good -> bad)
  double ge_bad_to_good = 0.0;  ///< per-packet P(bad -> good)
  double ge_loss_good = 0.0;    ///< loss probability in the good state
  double ge_loss_bad = 0.5;     ///< loss probability in the bad state
};

/// Counters exposed for tests and experiment reports.
struct LinkStats {
  std::uint64_t packets_sent = 0;   ///< packets that left the queue
  std::uint64_t bytes_sent = 0;     ///< wire bytes serialized
  std::uint64_t drops_queue = 0;    ///< drop-tail discards
  std::uint64_t drops_wire = 0;     ///< loss-model discards
  std::size_t max_queue_bytes = 0;  ///< high-water mark of queued bytes
};

/// One direction of a point-to-point link.
class Link {
 public:
  /// `deliver` is invoked (at the receiving end's simulated time) for every
  /// packet that survives the queue and the wire.
  using DeliverFn = std::function<void(Packet&&)>;

  Link(Simulator& sim, std::string name, const LinkConfig& config,
       DeliverFn deliver);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Enqueue a packet for transmission; drops if the queue is full.
  void send(Packet&& p);

  const LinkConfig& config() const { return config_; }
  /// Counters as of now(): a packet counts as sent (or lost on the wire)
  /// once it has departed. Once step() or run() has drained the queue,
  /// every packet counts: the run would have gone on to its departure.
  LinkStats stats() const;
  const std::string& name() const { return name_; }

  /// Bytes waiting in the drop-tail queue or serializing, as of now().
  std::size_t queued_bytes() const {
    return accepted_bytes_ - stats().bytes_sent;
  }

  /// Adjust the Bernoulli loss rate mid-run (failure injection). Loss is
  /// drawn at enqueue, so the new rate applies to packets sent from now on;
  /// packets already queued keep their fate.
  void set_loss_rate(double p) { config_.loss_rate = p; }

 private:
  /// A packet in the drop-tail queue: when it finishes serializing, its
  /// wire bytes, and whether the loss model took it.
  struct Departure {
    util::SimTime at = 0;
    std::size_t bytes = 0;
    bool lost = false;
  };

  /// How many queued packets a read counts as departed: those gone before
  /// now(), as send() retires them, or all of them once the run has drained
  /// the queue (the clock stops at the last event, which may come before
  /// the last loss departs).
  std::size_t departed() const;
  static void count_departure(const Departure& d, LinkStats& stats);
  bool wire_drops();
  void deliver_front();

  Simulator& sim_;
  std::string name_;
  LinkConfig config_;
  DeliverFn deliver_;
  util::Rng rng_;

  /// The drop-tail queue, in arrival order, lost packets included.
  util::Ring<Departure> departures_;
  std::uint64_t accepted_bytes_ = 0;  ///< every byte the queue took
  LinkStats stats_;
  /// Every packet that will be delivered, from send() until it is handed
  /// on, in delivery order (FIFO; see last_delivery_). A packet is stored
  /// here once and no event callback owns one; a lost packet is never
  /// stored.
  util::Ring<Packet> fifo_;
  /// Deliveries come out in time order: a lane, no per-packet callback.
  util::EventLane delivered_;
  bool ge_bad_state_ = false;
  util::SimTime last_delivery_ = 0;  ///< FIFO guard under jitter
};

}  // namespace lsl::sim
