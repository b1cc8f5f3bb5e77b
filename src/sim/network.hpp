// Topology container: nodes, links between them, and shortest-path routing.
//
// The experiment scenarios (src/exp) build small WAN topologies out of these
// pieces: campus hosts, access links, POP routers on an Abilene-like
// backbone, and depot hosts hanging off the POPs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/link.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"
#include "sim/types.hpp"

namespace lsl::sim {

/// A simulated network: owns the Simulator, all nodes, and all links.
class Network {
 public:
  explicit Network(std::uint64_t seed = 1) : sim_(seed) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Simulator& sim() { return sim_; }
  util::SimTime now() const { return sim_.now(); }

  /// Create a host (runs transport stacks / applications).
  Node& add_host(const std::string& name);

  /// Create a router (forwards only).
  Node& add_router(const std::string& name);

  /// Connect two nodes with a duplex link, one LinkConfig per direction.
  void connect(Node& a, Node& b, const LinkConfig& ab, const LinkConfig& ba);

  /// Connect two nodes with a symmetric duplex link.
  void connect(Node& a, Node& b, const LinkConfig& both) {
    connect(a, b, both, both);
  }

  /// Node lookup by id; throws std::out_of_range on invalid id.
  Node& node(NodeId id);
  const Node& node(NodeId id) const;

  /// Node lookup by name; nullptr when absent.
  Node* find_node(const std::string& name);

  /// The directed link from `a` to `b`, or nullptr when not adjacent.
  Link* link_between(NodeId a, NodeId b);

  /// The links a packet from `from` to `to` crosses, in order; empty when
  /// `to` is unreachable (or is `from`).
  std::vector<const Link*> route(NodeId from, NodeId to);

  /// Recompute all forwarding tables (Dijkstra, propagation-delay metric).
  /// Called lazily on first send after a topology change.
  void compute_routes();

  /// Route a packet out of node `at` toward p.dst. Returns false (and
  /// counts a drop) when no route exists.
  bool forward_from(NodeId at, Packet&& p);

  /// Number of nodes in the topology.
  std::size_t node_count() const { return nodes_.size(); }

  /// Sum of all links' counters (drop accounting for experiments/tests).
  LinkStats total_link_stats() const;

  /// Run the simulation until no events remain.
  void run() { sim_.events().run(); }

  /// Run until `deadline` simulated time.
  void run_until(util::SimTime deadline) { sim_.events().run_until(deadline); }

 private:
  Node& add_node(const std::string& name, bool is_router);

  Simulator sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unordered_map<std::string, NodeId> by_name_;
  // adjacency_[a][b] = link a->b
  std::unordered_map<NodeId, std::unordered_map<NodeId, std::unique_ptr<Link>>>
      adjacency_;
  // next_link_[src * node_count() + dst] = link to forward through, or
  // nullptr when dst is unreachable (or src itself)
  std::vector<Link*> next_link_;
  bool routes_dirty_ = true;
};

}  // namespace lsl::sim
