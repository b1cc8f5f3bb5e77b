// Sink-side reassembly of a striped session.
//
// N lanes deliver interleaved (or contiguous) slices of one byte stream,
// each in its own TCP order but with no ordering across lanes. The
// Reassembler is the merge point: a util::IntervalSet tracks global
// coverage (the same hole-tracking machinery the resume path uses), a
// per-stripe IntervalSet tracks each lane's contribution, out-of-order
// bytes wait in an offset-keyed buffer, and an incremental MD5 consumes the
// in-order frontier as it advances — so the merged stream's digest is
// available the moment coverage completes, without ever materializing the
// whole transfer. Redundant or re-striped lanes re-deliver bytes the sink
// already holds; those are counted and dropped, never re-hashed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "md5/md5.hpp"
#include "util/interval_set.hpp"

namespace lsl::stripe {

struct StripeMetrics;

class Reassembler {
 public:
  struct Config {
    std::uint64_t session_bytes = 0;  ///< merged-stream total length
    std::uint16_t stripe_count = 0;
    /// Observability hook (may be null): buffer/hole gauges and merge
    /// counters are updated on every offer().
    StripeMetrics* metrics = nullptr;
  };

  explicit Reassembler(const Config& config);

  /// Sink of in-order merged bytes, invoked as the frontier advances.
  /// Sinks that compare content against a known stream hook it here; the
  /// verdict on integrity still rests on digest().
  std::function<void(std::uint64_t offset, std::span<const std::uint8_t>)>
      on_frontier;

  /// Accept lane bytes mapping to global range [global, global+size).
  /// (Callers derive `global` from a LaneCursor.) Bytes already covered —
  /// redundant copies, re-striped overlap — are dropped and counted.
  /// Returns the number of fresh bytes accepted.
  std::uint64_t offer(std::uint16_t stripe_id, std::uint64_t global,
                      std::span<const std::uint8_t> data);

  /// True once every byte of [0, session_bytes) has arrived.
  bool complete() const {
    return frontier_ == config_.session_bytes;
  }

  /// Length of the contiguous received prefix (== session_bytes when done).
  std::uint64_t frontier() const { return frontier_; }

  /// Bytes parked beyond the frontier awaiting their predecessors.
  std::uint64_t buffered_bytes() const { return buffered_; }

  /// Redundant/duplicate bytes dropped so far.
  std::uint64_t duplicate_bytes() const { return duplicate_; }

  /// Gaps in coverage strictly below the highest byte seen — the holes a
  /// dead lane leaves until redundancy or a re-stripe fills them.
  std::size_t holes_outstanding() const;

  /// Coverage delivered under one stripe id — per-lane progress for the
  /// `stripe.lane<i>.bps` gauges. Redundant lanes overlap, so the per-stripe
  /// totals can sum past session_bytes (fresh-vs-duplicate accounting is
  /// global: duplicate_bytes()).
  std::uint64_t stripe_received(std::uint16_t stripe_id) const;

  /// MD5 over the merged stream; meaningful only once complete().
  md5::Digest digest();

 private:
  void advance_frontier();

  Config config_;
  util::IntervalSet covered_;
  std::vector<util::IntervalSet> per_stripe_;
  /// Out-of-order bytes keyed by global offset; entries never overlap
  /// (only fresh sub-ranges are stored) and drain in order into hash_.
  std::map<std::uint64_t, std::vector<std::uint8_t>> pending_;
  md5::Md5 hash_;
  std::uint64_t frontier_ = 0;
  std::uint64_t buffered_ = 0;
  std::uint64_t duplicate_ = 0;
  bool finalized_ = false;
  md5::Digest final_digest_;
};

}  // namespace lsl::stripe
