#include "stripe/plan.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>

namespace lsl::stripe {
namespace {

/// Bytes owned by logical stripe `s` of a round-robin geometry: its cells
/// from every full super-chunk (count*chunk bytes) plus its slice of the
/// trailing partial one.
std::uint64_t logical_stripe_bytes(std::uint64_t session_bytes,
                                   std::uint16_t count, std::uint32_t chunk,
                                   std::uint16_t s) {
  const std::uint64_t super = static_cast<std::uint64_t>(count) * chunk;
  const std::uint64_t full = session_bytes / super;
  const std::uint64_t rem = session_bytes % super;
  const std::uint64_t lo = static_cast<std::uint64_t>(s) * chunk;
  const std::uint64_t part = rem <= lo ? 0 : std::min<std::uint64_t>(rem - lo, chunk);
  return full * chunk + part;
}

}  // namespace

std::uint64_t round_robin_lane_bytes(const core::StripeInfo& info) {
  if (info.mode != core::StripeMode::kRoundRobin) {
    throw std::invalid_argument("round_robin_lane_bytes: contiguous lane");
  }
  std::uint64_t total = 0;
  for (std::uint16_t k = 0; k <= info.redundancy; ++k) {
    const auto s =
        static_cast<std::uint16_t>((info.stripe_id + k) % info.stripe_count);
    total += logical_stripe_bytes(info.session_bytes, info.stripe_count,
                                  info.chunk, s);
  }
  return total;
}

StripePlan StripePlan::round_robin(std::uint64_t session_bytes,
                                   std::uint16_t count, std::uint32_t chunk,
                                   std::uint8_t redundancy) {
  StripePlan plan;
  plan.session_bytes = session_bytes;
  for (std::uint16_t j = 0; j < count; ++j) {
    core::StripeInfo info;
    info.stripe_id = j;
    info.stripe_count = count;
    info.chunk = chunk;
    info.redundancy = redundancy;
    info.mode = core::StripeMode::kRoundRobin;
    info.session_bytes = session_bytes;
    if (!core::stripe_info_valid(info)) {
      throw std::invalid_argument("StripePlan::round_robin: bad geometry");
    }
    plan.lanes.push_back(info);
    plan.lane_bytes.push_back(round_robin_lane_bytes(info));
  }
  return plan;
}

StripePlan StripePlan::weighted(std::uint64_t session_bytes,
                                std::span<const double> weights) {
  StripePlan plan;
  plan.session_bytes = session_bytes;
  const auto count = static_cast<std::uint16_t>(weights.size());
  double total_w = 0;
  for (double w : weights) {
    if (w <= 0) throw std::invalid_argument("StripePlan::weighted: w <= 0");
    total_w += w;
  }
  // Cumulative proportional split: lane j covers [floor(T*W_j/W),
  // floor(T*W_{j+1}/W)), so the ranges tile [0, T) exactly with no
  // rounding drift regardless of weight precision.
  std::uint64_t prev = 0;
  double cum = 0;
  for (std::uint16_t j = 0; j < count; ++j) {
    cum += weights[j];
    const std::uint64_t hi =
        j + 1 == count ? session_bytes
                       : static_cast<std::uint64_t>(
                             static_cast<double>(session_bytes) *
                             (cum / total_w));
    core::StripeInfo info;
    info.stripe_id = j;
    info.stripe_count = count;
    info.chunk = 0;
    info.redundancy = 0;
    info.mode = core::StripeMode::kContiguous;
    info.session_bytes = session_bytes;
    info.range_lo = prev;
    if (!core::stripe_info_valid(info)) {
      throw std::invalid_argument("StripePlan::weighted: bad geometry");
    }
    plan.lanes.push_back(info);
    plan.lane_bytes.push_back(hi - prev);
    prev = hi;
  }
  return plan;
}

bool survivors_cover(const StripePlan& plan, std::uint32_t dead_mask) {
  const std::uint16_t count = plan.stripe_count();
  if (count == 0) return false;
  std::vector<bool> covered(count, false);
  for (std::uint16_t j = 0; j < count; ++j) {
    if ((dead_mask >> j) & 1u) continue;
    const core::StripeInfo& info = plan.lanes[j];
    const std::uint16_t carried =
        info.mode == core::StripeMode::kContiguous ? 0 : info.redundancy;
    for (std::uint16_t k = 0; k <= carried; ++k) covered[(j + k) % count] = true;
  }
  return std::all_of(covered.begin(), covered.end(),
                     [](bool b) { return b; });
}

std::vector<core::CandidateRoute> disjoint_routes(
    const core::RouteSelector& selector,
    const std::vector<core::CandidateRoute>& candidates, std::size_t want,
    std::uint64_t bytes) {
  std::vector<core::CandidateRoute> picked;
  std::set<std::string> used;
  std::vector<core::CandidateRoute> remaining = candidates;
  while (picked.size() < want && !remaining.empty()) {
    std::vector<core::CandidateRoute> eligible;
    for (const auto& r : remaining) {
      bool clash = false;
      for (std::size_t i = 1; i + 1 < r.waypoints.size(); ++i) {
        if (used.count(r.waypoints[i]) != 0) clash = true;
      }
      // With a health board attached, a route the selector refuses
      // (suspect/dead interior depot scores +infinity) never becomes a
      // lane — better to stripe narrower than to place a lane on a depot
      // the plane has condemned.
      if (!clash && selector.health() != nullptr &&
          std::isinf(selector.predict_transfer_seconds(r, bytes))) {
        clash = true;
      }
      if (!clash) eligible.push_back(r);
    }
    if (eligible.empty()) break;
    const core::CandidateRoute best = selector.choose(eligible, bytes);
    for (std::size_t i = 1; i + 1 < best.waypoints.size(); ++i) {
      used.insert(best.waypoints[i]);
    }
    std::erase_if(remaining, [&](const core::CandidateRoute& r) {
      return r.waypoints == best.waypoints;
    });
    picked.push_back(best);
  }
  return picked;
}

LaneCursor::LaneCursor(const core::StripeInfo& info, std::uint64_t lane_total)
    : info_(info), lane_total_(lane_total) {
  if (info_.mode == core::StripeMode::kRoundRobin) {
    carried_.reserve(static_cast<std::size_t>(info_.redundancy) + 1);
    for (std::uint16_t k = 0; k <= info_.redundancy; ++k) {
      carried_.push_back(static_cast<std::uint16_t>(
          (info_.stripe_id + k) % info_.stripe_count));
    }
    // Ascending stripe index == ascending global offset within each
    // super-chunk, which is the canonical wire order both ends derive.
    std::sort(carried_.begin(), carried_.end());
  }
}

void LaneCursor::advance_cell() {
  cell_off_ = 0;
  if (++carried_idx_ == carried_.size()) {
    carried_idx_ = 0;
    ++super_;
  }
}

LaneCursor::Range LaneCursor::next(std::uint64_t max_len) {
  if (done() || max_len == 0) return {};
  if (info_.mode == core::StripeMode::kContiguous) {
    const std::uint64_t len =
        std::min(max_len, lane_total_ - lane_pos_);
    const Range r{info_.range_lo + lane_pos_, len};
    lane_pos_ += len;
    return r;
  }
  for (;;) {
    // Lane exhausted relative to the geometry (a caller-supplied lane_total
    // larger than the block implies must not spin forever).
    if (super_ * info_.stripe_count * info_.chunk >= info_.session_bytes) {
      lane_pos_ = lane_total_;
      return {};
    }
    const std::uint64_t start =
        (super_ * info_.stripe_count + carried_[carried_idx_]) * info_.chunk +
        cell_off_;
    if (start >= info_.session_bytes) {
      advance_cell();
      continue;
    }
    const std::uint64_t avail = std::min<std::uint64_t>(
        info_.chunk - cell_off_, info_.session_bytes - start);
    const std::uint64_t len = std::min(max_len, avail);
    lane_pos_ += len;
    cell_off_ += len;
    if (cell_off_ == info_.chunk || start + len == info_.session_bytes) {
      advance_cell();
    }
    return {start, len};
  }
}

void LaneCursor::skip(std::uint64_t lane_count) {
  while (lane_count > 0 && !done()) {
    lane_count -= next(lane_count).length;
  }
}

LaneFiller::LaneFiller(const core::StripeInfo& info, std::uint64_t lane_total,
                       std::uint64_t base, std::uint64_t seed)
    : info_(info),
      lane_total_(lane_total),
      base_(base),
      gen_(seed),
      cursor_(info, lane_total) {
  cursor_.skip(base_);
}

void LaneFiller::fill(std::uint64_t offset, std::span<std::uint8_t> out) {
  if (offset != conn_off_) {
    cursor_ = LaneCursor(info_, lane_total_);
    cursor_.skip(base_ + offset);
    conn_off_ = offset;
  }
  std::size_t done = 0;
  while (done < out.size()) {
    const auto r = cursor_.next(out.size() - done);
    if (r.length == 0) break;  // lane exhausted (caller sized the transfer)
    gen_.seek(r.global);
    gen_.generate(out.subspan(done, static_cast<std::size_t>(r.length)));
    done += static_cast<std::size_t>(r.length);
    conn_off_ += r.length;
  }
}

}  // namespace lsl::stripe
