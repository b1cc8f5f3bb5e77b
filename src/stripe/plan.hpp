// Striped multipath session planning (source side).
//
// The paper's cascade pushes one session down one depot chain, so the
// session's throughput is capped by the slowest chain — the very limit TCP
// Trunking and RAIL (PAPERS.md) remove by striping one logical flow across
// disjoint paths. A StripePlan splits a session's byte stream over N lanes,
// each lane riding its own depot chain chosen disjointly from the
// RouteSelector's candidates; the per-lane StripeInfo blocks it produces are
// stamped into version-3 wire headers (src/lsl/wire.hpp) so the sink — and
// any replacement connection after a lane dies — can map lane bytes back
// into the merged stream with no side channel. docs/STRIPING.md is the
// narrative companion.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "lsl/payload.hpp"
#include "lsl/selector.hpp"
#include "lsl/wire.hpp"

namespace lsl::stripe {

/// Total bytes a round-robin lane carries: the sum of its carried logical
/// stripes' byte sets (lane j carries stripes j..j+redundancy mod count).
/// Contiguous lanes are not derivable from the block alone — their length
/// lives in the plan (and on the wire in payload_length).
std::uint64_t round_robin_lane_bytes(const core::StripeInfo& info);

/// A session's byte-to-lane assignment: one StripeInfo per lane plus the
/// lane byte counts (redundancy makes the counts sum to more than
/// session_bytes — that surplus is the loss-masking premium).
struct StripePlan {
  std::uint64_t session_bytes = 0;
  std::vector<core::StripeInfo> lanes;
  std::vector<std::uint64_t> lane_bytes;

  std::uint16_t stripe_count() const {
    return static_cast<std::uint16_t>(lanes.size());
  }

  /// Byte-interleaved plan: logical stripe s owns every `chunk`-sized cell
  /// with cell_index % count == s; lane j carries stripes j..j+redundancy
  /// (mod count), so any `redundancy` lane deaths leave full coverage.
  static StripePlan round_robin(std::uint64_t session_bytes,
                                std::uint16_t count, std::uint32_t chunk,
                                std::uint8_t redundancy = 0);

  /// Contiguous weighted plan: lane j carries a single byte range sized
  /// proportionally to weights[j] (e.g. the RouteSelector's predicted lane
  /// rates, so fast chains carry more). Incompatible with redundancy.
  static StripePlan weighted(std::uint64_t session_bytes,
                             std::span<const double> weights);
};

/// True when the lanes still alive carry every logical stripe of `plan`:
/// bit j of `dead_mask` marks lane j lost. A round-robin lane carries
/// stripes j..j+redundancy (mod count), a contiguous lane only its own
/// range. An empty plan (an unstriped session) is never covered.
bool survivors_cover(const StripePlan& plan, std::uint32_t dead_mask);

/// Greedy depot-disjoint route pick: repeatedly take the RouteSelector's
/// best remaining candidate whose interior depots avoid every depot already
/// claimed by an earlier pick. Returns up to `want` routes (fewer when the
/// candidate pool runs out of disjoint options); order is pick order, so
/// lane 0 rides the predicted-fastest chain.
std::vector<core::CandidateRoute> disjoint_routes(
    const core::RouteSelector& selector,
    const std::vector<core::CandidateRoute>& candidates, std::size_t want,
    std::uint64_t bytes);

/// The per-stripe sequencer: walks one lane's bytes in wire order (the
/// ascending-global-offset order both endpoints derive independently from
/// the StripeInfo block) and yields the global ranges they map to. The
/// source drives it to pick which payload offsets to send next; the sink
/// drives an identical cursor to place received lane bytes. `skip()` is the
/// resume path: a replacement connection for a half-delivered lane skips
/// the lane-relative prefix the sink already holds.
class LaneCursor {
 public:
  /// `lane_total` is the lane's full byte count (plan.lane_bytes[j] at the
  /// source; header payload_length + resume_offset at the sink).
  LaneCursor(const core::StripeInfo& info, std::uint64_t lane_total);

  /// One contiguous piece of the merged stream.
  struct Range {
    std::uint64_t global = 0;  ///< absolute offset in the merged stream
    std::uint64_t length = 0;  ///< bytes; 0 means the lane is exhausted
  };

  /// Map the next `max_len` lane bytes (fewer at a cell or lane boundary).
  Range next(std::uint64_t max_len);

  /// Advance past `lane_count` lane bytes without yielding them.
  void skip(std::uint64_t lane_count);

  std::uint64_t lane_total() const { return lane_total_; }
  std::uint64_t lane_position() const { return lane_pos_; }
  bool done() const { return lane_pos_ >= lane_total_; }

 private:
  void advance_cell();

  core::StripeInfo info_;
  std::uint64_t lane_total_ = 0;
  std::uint64_t lane_pos_ = 0;
  // Round-robin walk state: super-chunk index, index into carried_, offset
  // within the current cell.
  std::vector<std::uint16_t> carried_;
  std::uint64_t super_ = 0;
  std::size_t carried_idx_ = 0;
  std::uint64_t cell_off_ = 0;
};

/// Random-access payload filler for one lane connection: maps
/// connection-relative offsets through a LaneCursor onto merged-stream
/// offsets and generates the seeded content there. `base` is the lane
/// offset the connection starts at (a replacement lane's resume point).
/// Sources fill monotonically; a rewind rebuilds the cursor.
class LaneFiller {
 public:
  LaneFiller(const core::StripeInfo& info, std::uint64_t lane_total,
             std::uint64_t base, std::uint64_t seed);

  void fill(std::uint64_t offset, std::span<std::uint8_t> out);

 private:
  core::StripeInfo info_;
  std::uint64_t lane_total_;
  std::uint64_t base_;
  core::PayloadGenerator gen_;
  LaneCursor cursor_;
  std::uint64_t conn_off_ = 0;
};

}  // namespace lsl::stripe
