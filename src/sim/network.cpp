#include "sim/network.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

#include "util/log.hpp"

namespace lsl::sim {

Node& Network::add_node(const std::string& name, bool is_router) {
  if (by_name_.count(name) != 0) {
    throw std::invalid_argument("duplicate node name: " + name);
  }
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(*this, id, name, is_router));
  by_name_[name] = id;
  routes_dirty_ = true;
  return *nodes_.back();
}

Node& Network::add_host(const std::string& name) {
  return add_node(name, /*is_router=*/false);
}

Node& Network::add_router(const std::string& name) {
  return add_node(name, /*is_router=*/true);
}

void Network::connect(Node& a, Node& b, const LinkConfig& ab,
                      const LinkConfig& ba) {
  const NodeId ai = a.id(), bi = b.id();
  Node* bp = &b;
  Node* ap = &a;
  adjacency_[ai][bi] = std::make_unique<Link>(
      sim_, a.name() + "->" + b.name(), ab,
      [bp](Packet&& p) { bp->deliver(std::move(p)); });
  adjacency_[bi][ai] = std::make_unique<Link>(
      sim_, b.name() + "->" + a.name(), ba,
      [ap](Packet&& p) { ap->deliver(std::move(p)); });
  routes_dirty_ = true;
}

Node& Network::node(NodeId id) {
  if (id >= nodes_.size()) throw std::out_of_range("bad node id");
  return *nodes_[id];
}

const Node& Network::node(NodeId id) const {
  if (id >= nodes_.size()) throw std::out_of_range("bad node id");
  return *nodes_[id];
}

Node* Network::find_node(const std::string& name) {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : nodes_[it->second].get();
}

Link* Network::link_between(NodeId a, NodeId b) {
  const auto it = adjacency_.find(a);
  if (it == adjacency_.end()) return nullptr;
  const auto jt = it->second.find(b);
  return jt == it->second.end() ? nullptr : jt->second.get();
}

std::vector<const Link*> Network::route(NodeId from, NodeId to) {
  if (routes_dirty_) compute_routes();
  const std::size_t n = nodes_.size();
  std::vector<const Link*> links;
  if (from >= n || to >= n) return links;
  for (NodeId at = from; at != to;) {
    const Link* link = next_link_[at * n + to];
    if (link == nullptr) return {};
    links.push_back(link);
    for (const auto& [next, out] : adjacency_.at(at)) {
      if (out.get() == link) {
        at = next;
        break;
      }
    }
  }
  return links;
}

void Network::compute_routes() {
  const std::size_t n = nodes_.size();
  next_link_.assign(n * n, nullptr);

  // Dijkstra from every node over the propagation-delay metric. Topologies
  // here are tiny (tens of nodes), so O(n * E log E) is irrelevant.
  for (NodeId src = 0; src < n; ++src) {
    std::vector<util::SimDuration> dist(
        n, std::numeric_limits<util::SimDuration>::max());
    std::vector<NodeId> prev(n, kInvalidNode);
    using QEntry = std::pair<util::SimDuration, NodeId>;
    std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> pq;
    dist[src] = 0;
    pq.push({0, src});
    while (!pq.empty()) {
      const auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[u]) continue;
      // Hosts other than the source do not forward transit traffic.
      if (u != src && !nodes_[u]->is_router()) continue;
      const auto it = adjacency_.find(u);
      if (it == adjacency_.end()) continue;
      for (const auto& [v, link] : it->second) {
        // +1ns forwarding cost keeps hop counts minimal on equal-delay ties.
        const util::SimDuration nd = d + link->config().delay + 1;
        if (nd < dist[v]) {
          dist[v] = nd;
          prev[v] = u;
          pq.push({nd, v});
        }
      }
    }
    for (NodeId dst = 0; dst < n; ++dst) {
      if (dst == src || prev[dst] == kInvalidNode) continue;
      // Walk back from dst to find the first hop out of src.
      NodeId hop = dst;
      while (prev[hop] != src) hop = prev[hop];
      next_link_[src * n + dst] = link_between(src, hop);
    }
  }
  routes_dirty_ = false;
}

LinkStats Network::total_link_stats() const {
  LinkStats total;
  for (const auto& [from, edges] : adjacency_) {
    for (const auto& [to, link] : edges) {
      const LinkStats& s = link->stats();
      total.packets_sent += s.packets_sent;
      total.bytes_sent += s.bytes_sent;
      total.drops_queue += s.drops_queue;
      total.drops_wire += s.drops_wire;
      total.max_queue_bytes = std::max(total.max_queue_bytes, s.max_queue_bytes);
    }
  }
  return total;
}

bool Network::forward_from(NodeId at, Packet&& p) {
  if (routes_dirty_) compute_routes();
  const std::size_t n = nodes_.size();
  if (at >= n || p.dst >= n) return false;
  Link* link = next_link_[at * n + p.dst];
  if (link == nullptr) {
    LSL_LOG_WARN("%s: no route to node %u", nodes_[at]->name().c_str(), p.dst);
    return false;
  }
  link->send(std::move(p));
  return true;
}

}  // namespace lsl::sim
