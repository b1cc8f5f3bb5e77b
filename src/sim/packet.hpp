// The simulated network packet.
//
// Packets model IPv4/TCP framing at the granularity the experiments need:
// exact wire sizes (so serialization and queueing delays are right), full
// TCP header semantics (sequence/ack/flags/window), and either *virtual*
// payloads (a byte count plus the offset of those bytes within the sending
// application's stream) or *real* payloads (an actual byte buffer). Virtual
// payloads make multi-gigabyte sweeps cheap; real payloads let tests and the
// MD5 integrity path verify content end-to-end through depots.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/types.hpp"
#include "util/contract.hpp"

namespace lsl::sim {

/// TCP header flag bits (subset the model uses).
enum TcpFlags : std::uint8_t {
  kFlagSyn = 1u << 0,
  kFlagAck = 1u << 1,
  kFlagFin = 1u << 2,
  kFlagRst = 1u << 3,
};

/// SACK option blocks (RFC 2018): up to 3 [start, end) sequence ranges,
/// most recently changed first. Stored inline, so a packet never allocates
/// for its options and moving one is a flat copy.
class SackBlocks {
 public:
  using Block = std::pair<std::uint64_t, std::uint64_t>;
  static constexpr std::size_t kMax = 3;

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  bool full() const { return count_ == kMax; }

  void push_back(const Block& b) {
    LSL_PRECONDITION(count_ < kMax, "more than 3 SACK blocks");
    blocks_[count_++] = b;
  }

  const Block* begin() const { return blocks_.data(); }
  const Block* end() const { return blocks_.data() + count_; }

 private:
  std::array<Block, kMax> blocks_{};
  std::uint8_t count_ = 0;
};

/// Simulated TCP header. Sequence numbers are 64-bit stream offsets — the
/// model never wraps, which removes an entire class of bookkeeping without
/// changing any timing behaviour the paper measures.
struct TcpHeader {
  PortNum src_port = 0;
  PortNum dst_port = 0;
  std::uint64_t seq = 0;  ///< sequence number of first payload byte
  std::uint64_t ack = 0;  ///< next expected sequence number (if kFlagAck)
  std::uint8_t flags = 0;
  std::uint64_t window = 0;  ///< advertised receive window, bytes

  /// SACK option blocks, counted in the wire size.
  SackBlocks sack;
};

/// Bytes of IP + TCP header on the wire (20 IP + 20 TCP + 12 timestamp
/// options, the usual framing for the paper's Linux 2.4 era with RFC 1323
/// extensions enabled).
inline constexpr std::uint32_t kTcpIpHeaderBytes = 52;

/// Bytes of IP + UDP header on the wire.
inline constexpr std::uint32_t kUdpIpHeaderBytes = 28;

/// Maximum TCP segment payload for a 1500-byte MTU with our framing.
inline constexpr std::uint32_t kDefaultMss = 1448;

/// A packet in flight.
struct Packet {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Protocol proto = Protocol::kTcp;
  TcpHeader tcp;

  /// Payload length in bytes (counted for wire size whether or not `data`
  /// carries real bytes).
  std::uint32_t payload_bytes = 0;

  /// Real payload contents; null for virtual-payload flows. Shared so that
  /// retransmissions and multi-hop forwarding never copy.
  std::shared_ptr<const std::vector<std::uint8_t>> data;

  /// Unique id assigned at send time; used by traces and debugging.
  std::uint64_t serial = 0;

  /// Remaining router hops before the packet is dropped (loop guard).
  std::uint8_t ttl = 64;

  /// Total wire size, headers included (SACK options add 2 + 8 bytes per
  /// block, padded to 4-byte alignment).
  std::uint32_t wire_bytes() const {
    std::uint32_t size =
        payload_bytes +
        (proto == Protocol::kTcp ? kTcpIpHeaderBytes : kUdpIpHeaderBytes);
    if (!tcp.sack.empty()) {
      const std::uint32_t opt =
          2 + 8 * static_cast<std::uint32_t>(tcp.sack.size());
      size += (opt + 3) & ~3u;
    }
    return size;
  }

  bool has(TcpFlags f) const { return (tcp.flags & f) != 0; }
};

}  // namespace lsl::sim
