// Simulation context: the event queue plus the root of the deterministic
// RNG tree and the global packet serial counter.
#pragma once

#include <cstdint>

#include "util/event_queue.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace lsl::sim {

/// One simulation run's shared context.
///
/// Components must obtain their RNG stream via make_rng() exactly once at
/// construction; this guarantees that adding or removing a component only
/// changes that component's randomness, never its neighbours'.
class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : root_rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// The discrete-event queue driving this run.
  util::EventQueue& events() { return events_; }
  const util::EventQueue& events() const { return events_; }

  /// Current simulated time.
  util::SimTime now() const { return events_.now(); }

  /// Derive an independent RNG stream for one component.
  util::Rng make_rng() { return root_rng_.split(); }

  /// Next globally unique packet serial number.
  std::uint64_t next_packet_serial() { return ++packet_serial_; }

 private:
  util::EventQueue events_;
  util::Rng root_rng_;
  std::uint64_t packet_serial_ = 0;
};

}  // namespace lsl::sim
