// Send/receive stream buffers for the simulated TCP model.
//
// Both buffers operate in one of two modes, fixed at construction:
//  * real mode    — actual bytes are stored and carried in packets, so
//                   content flows end-to-end (tests, MD5 integrity path);
//  * virtual mode — only byte *counts* are tracked and packets carry
//                   (offset, length). Timing-identical to real mode but
//                   O(1) memory, making multi-gigabyte sweeps cheap.
//
// Offsets are absolute positions in the application byte stream (0-based),
// independent of TCP sequence numbers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "util/ring.hpp"

namespace lsl::tcp {

/// Sender-side stream buffer: a sliding window of unacknowledged data.
///
/// Holds stream bytes in [acked, written). Capacity bounds written - acked,
/// i.e. the send-socket-buffer size (8 MB in the paper's configuration).
class SendBuffer {
 public:
  /// `real` selects real-byte storage (a ring buffer) vs. count-only mode.
  SendBuffer(std::uint64_t capacity, bool real);

  bool real() const { return !ring_.empty(); }
  std::uint64_t capacity() const { return capacity_; }

  /// Total bytes the application has written so far.
  std::uint64_t written() const { return written_; }

  /// Lowest unacknowledged stream offset.
  std::uint64_t acked() const { return acked_; }

  /// Free space available for application writes.
  std::uint64_t free_space() const { return capacity_ - (written_ - acked_); }

  /// Append real bytes; returns the number accepted (bounded by free_space).
  /// Only valid in real mode.
  std::size_t write(std::span<const std::uint8_t> data);

  /// Append `n` virtual bytes; returns the number accepted.
  /// Only valid in virtual mode.
  std::uint64_t write_virtual(std::uint64_t n);

  /// Release everything below stream offset `offset` (cumulative ack).
  void ack_to(std::uint64_t offset);

  /// Copy out [offset, offset+len) for (re)transmission. Returns nullptr in
  /// virtual mode. Requires acked() <= offset and offset+len <= written().
  std::shared_ptr<const std::vector<std::uint8_t>> slice(std::uint64_t offset,
                                                         std::uint32_t len) const;

 private:
  std::uint64_t capacity_;
  std::uint64_t written_ = 0;
  std::uint64_t acked_ = 0;
  std::vector<std::uint8_t> ring_;  // empty in virtual mode
};

/// Receiver-side reassembly buffer.
///
/// Accepts segments at arbitrary offsets, tracks the contiguous frontier
/// (rcv_nxt), and serves in-order reads to the application. Only
/// out-of-order segments take a map node; an in-order arrival just moves the
/// frontier (and, in real mode, queues its payload for read()). The advertised
/// window shrinks by both unread in-order bytes and buffered out-of-order
/// bytes, which is what closes the upstream window when an LSL depot's relay
/// buffer fills (hop-by-hop backpressure).
class RecvBuffer {
 public:
  RecvBuffer(std::uint64_t capacity, bool real);

  bool real() const { return real_; }
  std::uint64_t capacity() const { return capacity_; }

  /// Next expected stream offset (the contiguous frontier).
  std::uint64_t rcv_nxt() const { return rcv_nxt_; }

  /// Bytes ready for in-order application reads.
  std::uint64_t readable() const { return rcv_nxt_ - app_read_; }

  /// Current advertised receive window in bytes.
  std::uint64_t window() const;

  /// Insert a segment [offset, offset+len). `data` may be null in virtual
  /// mode. Duplicate/overlapping bytes are ignored. Returns true if the
  /// contiguous frontier advanced.
  bool insert(std::uint64_t offset, std::uint32_t len,
              std::shared_ptr<const std::vector<std::uint8_t>> data);

  /// Read up to out.size() in-order bytes into `out` (real mode).
  std::size_t read(std::span<std::uint8_t> out);

  /// Consume up to `max` in-order bytes without copying (virtual mode; also
  /// legal in real mode — bytes are discarded).
  std::uint64_t read_virtual(std::uint64_t max);

  /// Bytes currently held out-of-order beyond the frontier.
  std::uint64_t out_of_order_bytes() const { return ooo_bytes_; }

  /// The maximal contiguous out-of-order block containing stream offset
  /// `offset` (merging adjacent chunks); nullopt if `offset` lies below the
  /// frontier or in no buffered chunk. Feeds SACK block generation.
  std::optional<std::pair<std::uint64_t, std::uint64_t>> ooo_block_containing(
      std::uint64_t offset) const;

 private:
  struct Chunk {
    std::uint32_t len = 0;
    /// Real payload, of which `len` bytes from `trim_front` on belong to
    /// this chunk. Null in virtual mode.
    std::shared_ptr<const std::vector<std::uint8_t>> data;
    std::uint32_t trim_front = 0;  ///< bytes of `data` to skip
  };

  /// `c` starts at the frontier: advance past it (real mode queues it for
  /// read()).
  void take_in_order(Chunk&& c);
  /// Advance over out-of-order chunks the frontier has reached.
  void advance_frontier();
  /// Consume up to `max` in-order bytes, copying them to `out` if non-null.
  std::uint64_t consume(std::uint64_t max, std::uint8_t* out);

  std::uint64_t capacity_;
  bool real_;
  std::uint64_t rcv_nxt_ = 0;
  std::uint64_t app_read_ = 0;
  std::uint64_t ooo_bytes_ = 0;
  /// Out-of-order segments beyond the frontier, keyed by start offset.
  /// Non-overlapping after insert() normalization.
  std::map<std::uint64_t, Chunk> ooo_;
  /// Real mode: the unread in-order bytes [app_read_, rcv_nxt_), in order.
  /// The front chunk's trim_front/len shrink as read() consumes it.
  util::Ring<Chunk> ready_;
};

}  // namespace lsl::tcp
