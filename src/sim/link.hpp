// Unidirectional point-to-point link with a drop-tail output queue.
//
// The link models exactly the mechanisms the paper's analysis depends on:
// serialization delay (rate), propagation delay (+ optional jitter),
// finite buffering (drop-tail queue in bytes), and packet loss — either
// i.i.d. Bernoulli (WAN background loss) or a two-state Gilbert–Elliott
// process (bursty 802.11b loss in the wireless case).
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
  const LinkStats& stats() const { return stats_; }
  const std::string& name() const { return name_; }

  /// Bytes currently waiting in the drop-tail queue.
  std::size_t queued_bytes() const { return queued_bytes_; }

  /// Adjust the Bernoulli loss rate mid-run (failure injection).
  void set_loss_rate(double p) { config_.loss_rate = p; }

 private:
  /// A packet from enqueue to delivery; `lost` marks a wire loss.
  struct Entry {
    Packet packet;
    bool lost = false;
  };

  void start_transmission();
  void finish_transmission();
  void deliver_front();
  void drop_lost_front();
  bool wire_drops();

  Simulator& sim_;
  std::string name_;
  LinkConfig config_;
  DeliverFn deliver_;
  util::Rng rng_;

  /// Every packet the link holds, in arrival order: the first `on_wire_`
  /// entries have been serialized (delivered in this order, since delivery
  /// is FIFO; see last_delivery_), the rest wait in the drop-tail queue. A
  /// packet is stored here once, from send() until it is handed on, and no
  /// event callback owns one. Wire losses stay in place, marked, until they
  /// reach the front.
  util::Ring<Entry> fifo_;
  std::size_t on_wire_ = 0;
  /// One transmit completion is pending at a time; deliveries come out in
  /// time order. Both are lanes: no per-packet callback or slot.
  util::EventLane transmit_done_;
  util::EventLane delivered_;
  std::size_t queued_bytes_ = 0;
  bool ge_bad_state_ = false;
  util::SimTime last_delivery_ = 0;  ///< FIFO guard under jitter
  LinkStats stats_;
};

}  // namespace lsl::sim
