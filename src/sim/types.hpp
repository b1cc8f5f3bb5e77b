// Fundamental identifier types shared by the simulator, the TCP model and
// the session layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace lsl::sim {

/// Identifies a node (host or router) within one simulated network.
using NodeId = std::uint32_t;

/// An invalid/unset node id.
inline constexpr NodeId kInvalidNode = ~NodeId{0};

/// A transport-layer port number.
using PortNum = std::uint16_t;

/// A (node, port) transport endpoint — the simulator's "IP:port".
struct Endpoint {
  NodeId node = kInvalidNode;
  PortNum port = 0;

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
  friend auto operator<=>(const Endpoint&, const Endpoint&) = default;
};

/// Protocols the simulated network demultiplexes on.
enum class Protocol : std::uint8_t {
  kTcp,  ///< the full TCP model in src/tcp
  kUdp,  ///< datagram traffic (cross-traffic generators)
};

/// Number of Protocol values (nodes index their handlers by protocol).
inline constexpr std::size_t kProtocolCount = 2;

}  // namespace lsl::sim

template <>
struct std::hash<lsl::sim::Endpoint> {
  std::size_t operator()(const lsl::sim::Endpoint& e) const noexcept {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(e.node) << 16) | e.port);
  }
};
