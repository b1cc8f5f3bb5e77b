#include "lsl/source_core.hpp"

#include <algorithm>
#include <memory>

#include "util/log.hpp"

namespace lsl::core {

// --- SourceCore --------------------------------------------------------------

SourceCore::SourceCore(SourceHost& host, SourcePlan plan, bool carry_data)
    : host_(host),
      plan_(std::move(plan)),
      carry_data_(carry_data),
      resumable_(plan_.resumable && plan_.use_header &&
                 !plan_.header.stripe) {
  if (resumable_) plan_.header.flags &= ~kFlagDigestTrailer;
  if (carry_data_ && plan_.use_header && plan_.header.has_digest()) {
    trailer_ = kDigestTrailerBytes;
  }
  if (carry_data_) generator_.emplace(plan_.payload_seed);
  if (trailer_ != 0 && !plan_.trailer_digest) hasher_.emplace();
}

void SourceCore::open(std::uint64_t offset) {
  conn_offset_ = offset;
  floor_ = std::max(floor_, offset);
  written_ = 0;
  closing_ = false;
  header_bytes_.clear();
  if (plan_.use_header) {
    // The route's first hop is the endpoint the adapter dials; the header
    // carries the rest (a depot must not see itself in the route).
    wire_ = plan_.header.popped();
    if (migrated_) {
      // The new chain has never seen the session: fresh depots relay it as
      // an ordinary one, and the sink's ledger splices it at the floor.
      // payload_length is the REMAINDER (docs/PROTOCOL.md, bit 3).
      wire_.flags |= kFlagMigrate;
      wire_.resume_offset = offset;
      wire_.payload_length = plan_.payload_bytes - offset;
    } else if (offset > 0) {
      // Nothing acked means the depot may never have read the header: a
      // resume at 0 would name a session it does not hold.
      wire_.flags |= kFlagResume;
      wire_.resume_offset = offset;
    }
    if (carry_data_) encode_header(wire_, header_bytes_);
  }
  header_size_ = plan_.use_header ? wire_.encoded_size() : 0;
  payload_end_ = header_size_ + (plan_.payload_bytes - offset);
  if (generator_) generator_->seek(offset);
  host_.dial();
}

std::span<const std::uint8_t> SourceCore::next(
    std::span<std::uint8_t> scratch) {
  if (written_ < header_size_) {
    return std::span<const std::uint8_t>(header_bytes_).subspan(written_);
  }
  if (written_ < payload_end_) {
    const std::span<std::uint8_t> out = scratch.first(static_cast<std::size_t>(
        std::min<std::uint64_t>(payload_end_ - written_, scratch.size())));
    if (out.empty()) return out;
    const std::uint64_t at = conn_offset_ + (written_ - header_size_);
    if (plan_.payload_fill) {
      plan_.payload_fill(at, out);
    } else {
      generator_->generate(out);
    }
    if (hasher_) hasher_->update(out);
    // The one corruption rule: the byte is flipped after it was digested,
    // so the wire carries corrupted payload under an honest trailer.
    if (plan_.corrupt_at_byte && *plan_.corrupt_at_byte - at < out.size()) {
      out[static_cast<std::size_t>(*plan_.corrupt_at_byte - at)] ^= 0x5a;
      if (plan_.on_corrupt) plan_.on_corrupt(*plan_.corrupt_at_byte);
    }
    return out;
  }
  if (written_ >= payload_end_ + trailer_) return {};
  if (!digest_) digest_ = hasher_ ? hasher_->finalize() : *plan_.trailer_digest;
  return std::span<const std::uint8_t>(digest_->bytes)
      .subspan(static_cast<std::size_t>(written_ - payload_end_));
}

void SourceCore::half_closed() {
  closing_ = true;
  // Without a verdict on the way back, a plain session is done once its
  // bytes are queued; a resumable one is delivered only when the peer
  // closes — a death before that re-enters lost().
  if (!host_.confirms() && !resumable_) finish(true);
}

void SourceCore::acked(std::uint64_t wire) {
  if (wire <= header_size_) return;
  floor_ = std::max(floor_, std::min(plan_.payload_bytes,
                                     conn_offset_ + (wire - header_size_)));
}

void SourceCore::closed(bool ok) {
  if (!write_done()) {
    lost();  // an orderly close mid-stream is a death
  } else if (!finished_) {
    finish(ok);
  }
}

void SourceCore::lost() {
  if (finished_) return;
  if (!resumable_) {
    finish(false);
    return;
  }
  const std::optional<std::int64_t> delay = host_.backoff();
  host_.hang_up();
  if (!delay) {
    LSL_LOG_WARN("source: reconnect budget exhausted; giving up");
    gave_up_ = true;
    finish(false);
    return;
  }
  ++resumes_;
  LSL_LOG_INFO("source: connection lost; resuming from %llu",
               static_cast<unsigned long long>(floor_));
  host_.wait(*delay);
}

void SourceCore::redial() {
  if (!finished_) open(floor_);
}

bool SourceCore::can_migrate(std::uint64_t floor) const {
  return resumable_ && !final_ && floor < plan_.payload_bytes;
}

bool SourceCore::migrate(std::vector<HopAddress> route, std::uint64_t floor) {
  if (!can_migrate(floor)) return false;
  // Abandon the current chain (or the backoff wait): its depots park or
  // fail the husk on their own, and the bytes in flight die with it. A
  // close without a verdict only said the first hop took the bytes: they
  // may be stranded downstream, so the session reopens.
  host_.hang_up();
  finished_ = false;
  migrated_ = true;
  ++migrations_;
  plan_.header.hops = std::move(route);
  // The sink's frontier replaces — never maxes with — the ack floor: a
  // first-hop ack counts bytes the dying chain may never deliver, and a
  // floor above the frontier opens a gap the sink's ledger must refuse.
  floor_ = floor;
  LSL_LOG_INFO("source: migrating at floor %llu",
               static_cast<unsigned long long>(floor));
  open(floor);
  return true;
}

void SourceCore::finish(bool ok) {
  finished_ = true;
  final_ = !ok || host_.confirms();
  host_.end(ok);
}

// --- LaneSet -----------------------------------------------------------------

LaneSet::LaneSet(stripe::StripePlan plan, std::uint64_t session_bytes,
                 SessionId session, std::uint64_t seed)
    : plan_(std::move(plan)),
      session_(session),
      seed_(seed),
      digest_(stream_digest(seed, session_bytes)) {
  for (std::size_t j = 0; j < plan_.lanes.size(); ++j) {
    lanes_.push_back({plan_.lanes[j], plan_.lane_bytes[j]});
  }
  if (lanes_.empty()) lanes_.push_back({std::nullopt, session_bytes});
}

SourcePlan LaneSet::plan(std::size_t li, std::uint64_t floor) const {
  const Lane& lane = lanes_[li];
  SourcePlan p;
  p.payload_bytes = lane.total - floor;
  p.payload_seed = seed_;
  p.use_header = true;
  p.header.session = session_;
  p.header.flags = kFlagDigestTrailer;
  p.header.payload_length = lane.total - floor;
  p.header.resume_offset = floor;
  p.header.stripe = lane.info;
  // Every lane ships the merged stream's digest: only the reassembling
  // sink can check it, and a surviving lane's trailer still vouches for
  // the whole session after another lane died.
  p.trailer_digest = digest_;
  if (lane.info) {
    auto filler = std::make_shared<stripe::LaneFiller>(*lane.info, lane.total,
                                                       floor, seed_);
    p.payload_fill = [filler](std::uint64_t off, std::span<std::uint8_t> out) {
      filler->fill(off, out);
    };
  }
  return p;
}

LaneSet::Loss LaneSet::lose(std::size_t li, std::uint64_t delivered) {
  Lane& lane = lanes_[li];
  if (!lane.live()) return Loss::kSettled;
  if (delivered >= lane.total) {
    // Only the trailer was cut off; another lane's identical trailer
    // vouches for the session.
    lane.settled = true;
    return Loss::kSettled;
  }
  lane.dead = true;
  ++lost_;
  std::uint32_t dead_mask = 0;
  for (std::size_t j = 0; j < lanes_.size(); ++j) {
    if (lanes_[j].dead) dead_mask |= 1u << j;
  }
  if (stripe::survivors_cover(plan_, dead_mask)) {
    lane.settled = true;
    return Loss::kAbsorbed;
  }
  return Loss::kRestripe;
}

SourcePlan LaneSet::restripe(std::size_t li, std::uint64_t floor) {
  Lane& lane = lanes_[li];
  if (!lane.info) floor = 0;
  lane.dead = false;
  ++recovered_;
  retransmitted_ += lane.total - floor;
  return plan(li, floor);
}

}  // namespace lsl::core
