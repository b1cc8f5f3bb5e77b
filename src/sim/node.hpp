// Nodes: hosts (run transport stacks and applications) and routers
// (store-and-forward packet switches with static forwarding tables).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "util/event_queue.hpp"
#include "sim/packet.hpp"
#include "sim/types.hpp"
#include "util/ring.hpp"

namespace lsl::sim {

class Network;

/// A host or router in the simulated topology.
///
/// Nodes are created by (and owned by) a Network. A router forwards any
/// packet not addressed to it via the network's routing tables; a host
/// delivers packets addressed to it to the registered protocol handler and
/// silently drops transit traffic (hosts do not forward, mirroring the
/// single-homed general-purpose machines used in the paper's testbed).
class Node {
 public:
  using ProtocolHandler = std::function<void(Packet&&)>;

  Node(Network& net, NodeId id, std::string name, bool is_router);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  bool is_router() const { return is_router_; }

  /// Register the handler for packets of `proto` addressed to this node.
  /// The TCP stack registers itself here.
  void set_protocol_handler(Protocol proto, ProtocolHandler handler);

  /// A packet has arrived at this node from a link (or loopback).
  void deliver(Packet&& p);

  /// Send a packet originating at (or transiting) this node toward p.dst.
  /// Destination == self short-circuits through a small loopback delay.
  void send(Packet&& p);

  /// Packets dropped at this node (no handler / no route / TTL expiry).
  std::uint64_t dropped() const { return dropped_; }

 private:
  Network& net_;
  NodeId id_;
  std::string name_;
  bool is_router_;
  std::array<ProtocolHandler, kProtocolCount> handlers_;  ///< by Protocol
  /// Packets on the loopback hop. Its delay is fixed, so deliveries are
  /// FIFO: each run of the loopback lane takes the front packet.
  util::Ring<Packet> loopback_;
  util::EventLane loopback_done_;
  std::uint64_t dropped_ = 0;
};

}  // namespace lsl::sim
