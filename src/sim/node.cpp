#include "sim/node.hpp"

#include <utility>

#include "sim/network.hpp"
#include "util/log.hpp"

namespace lsl::sim {

Node::Node(Network& net, NodeId id, std::string name, bool is_router)
    : net_(net),
      id_(id),
      name_(std::move(name)),
      is_router_(is_router),
      loopback_done_(net.sim().events(),
                     [this] { deliver(loopback_.pop_front()); }) {}

void Node::set_protocol_handler(Protocol proto, ProtocolHandler handler) {
  handlers_[static_cast<std::size_t>(proto)] = std::move(handler);
}

void Node::deliver(Packet&& p) {
  if (p.dst == id_) {
    const ProtocolHandler& handler =
        handlers_[static_cast<std::size_t>(p.proto)];
    if (!handler) {
      ++dropped_;
      LSL_LOG_DEBUG("%s: no handler for protocol %u", name_.c_str(),
                    static_cast<unsigned>(p.proto));
      return;
    }
    handler(std::move(p));
    return;
  }
  if (!is_router_) {
    // Hosts are single-homed end systems; transit traffic is discarded.
    ++dropped_;
    return;
  }
  if (p.ttl == 0) {
    ++dropped_;
    LSL_LOG_WARN("%s: TTL expired for packet serial %llu", name_.c_str(),
                 static_cast<unsigned long long>(p.serial));
    return;
  }
  --p.ttl;
  if (!net_.forward_from(id_, std::move(p))) ++dropped_;
}

void Node::send(Packet&& p) {
  if (p.dst == id_) {
    // Loopback: model a small host-internal latency so local connections
    // still order events sensibly.
    loopback_.push_back(std::move(p));
    loopback_done_.push_in(util::micros(20));
    return;
  }
  if (!net_.forward_from(id_, std::move(p))) ++dropped_;
}

}  // namespace lsl::sim
