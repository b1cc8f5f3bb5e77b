#include "lsl/sink_core.hpp"

#include <algorithm>
#include <limits>

#include "stripe/reassemble.hpp"
#include "util/contract.hpp"
#include "util/log.hpp"

namespace lsl::core {

namespace {

bool bounded(const SinkStream& s) {
  return s.header && (s.header->flags & kFlagUnboundedStream) == 0;
}

bool has_digest(const SinkStream& s) {
  return s.header && s.header->has_digest();
}

md5::Digest to_digest(const std::array<std::uint8_t, kDigestTrailerBytes>& b) {
  md5::Digest d;
  std::copy(b.begin(), b.end(), d.bytes.begin());
  return d;
}

}  // namespace

// --- SessionLedger -----------------------------------------------------------

std::uint64_t SessionLedger::open(const SessionHeader& h, util::SimTime now) {
  auto it = sessions_.find(h.session);
  if (it == sessions_.end()) {
    it = sessions_.emplace(h.session, State(seed_, check_content_)).first;
    Session& s = it->second.s;
    s.header = h;
    s.total = h.is_migrate() ? h.resume_offset + h.payload_length
                             : h.payload_length;
    s.first_accept = now;
  }
  ++it->second.s.connections;
  return h.is_migrate() || h.is_resume() ? h.resume_offset : 0;
}

SessionLedger::Feed SessionLedger::feed(const SessionId& id,
                                        std::uint64_t offset,
                                        std::span<const std::uint8_t> data,
                                        util::SimTime now) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return Feed::kHeld;  // never opened
  State& st = it->second;
  if (st.s.completed || st.s.gap_refused) return Feed::kHeld;
  if (offset > st.s.frontier) {
    // The connection claims bytes past everything we hold: acked data was
    // lost in a dead chain. Refuse the session rather than paper over it.
    st.s.gap_refused = true;
    LSL_LOG_WARN("ledger: gap at %llu (frontier %llu), session refused",
                 static_cast<unsigned long long>(offset),
                 static_cast<unsigned long long>(st.s.frontier));
    return Feed::kGap;
  }
  // Discard the duplicated prefix; feed only frontier-advancing bytes so
  // the verifier's MD5 covers each stream byte exactly once.
  const std::uint64_t skip = st.s.frontier - offset;
  if (skip >= data.size()) return Feed::kHeld;
  const auto fresh = data.subspan(static_cast<std::size_t>(skip));
  st.verifier.feed(fresh);
  st.s.frontier += fresh.size();
  if (st.s.frontier < st.s.total) return Feed::kHeld;
  st.s.completed = true;
  st.s.complete_time = now;
  if (on_session_complete) on_session_complete(id, st.s);
  return Feed::kCompleted;
}

const SessionLedger::Session* SessionLedger::find(const SessionId& id) const {
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second.s;
}

std::uint64_t SessionLedger::frontier(const SessionId& id) const {
  const Session* s = find(id);
  return s == nullptr ? 0 : s->frontier;
}

bool SessionLedger::completed(const SessionId& id) const {
  const Session* s = find(id);
  return s != nullptr && s->completed;
}

bool SessionLedger::content_ok(const SessionId& id) const {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  return !it->second.s.gap_refused && it->second.verifier.ok();
}

md5::Digest SessionLedger::digest(const SessionId& id) const {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return {};
  return it->second.verifier.digest();
}

// --- SinkCore ----------------------------------------------------------------

/// Lanes sharing a session id feed one Reassembler, whose digest of the
/// merged stream must match the first complete trailer; with content
/// checking on, the in-order frontier is also compared with the seeded
/// stream as it advances. Finished lanes park until the verdict.
struct SinkGroup {
  stripe::Reassembler reasm;
  std::optional<PayloadCheck> content;
  std::optional<md5::Digest> trailer;
  SessionHeader first_header;
  std::int64_t first_accept;
  std::vector<SinkStream*> parked;
  bool reported = false;
  bool ok = false;

  SinkGroup(const SessionHeader& h, std::uint64_t seed, bool check_content,
            std::int64_t accepted)
      : reasm({.session_bytes = h.stripe->session_bytes,
               .stripe_count = h.stripe->stripe_count,
               .metrics = nullptr}),
        first_header(h),
        first_accept(accepted) {
    if (!check_content) return;
    content.emplace(seed);
    reasm.on_frontier = [this](std::uint64_t,
                               std::span<const std::uint8_t> data) {
      content->feed(data);
    };
  }
};

SinkCore::SinkCore(SinkHost& host, bool expect_header, bool verify,
                   bool check_content, std::uint64_t seed,
                   SessionLedger* ledger)
    : host_(host),
      expect_header_(expect_header),
      verify_(verify),
      check_content_(check_content),
      seed_(seed),
      ledger_(ledger) {}

SinkCore::~SinkCore() = default;

void SinkCore::open(SinkStream& s, std::int64_t now) {
  s.accepted = now;
  if (expect_header_) return;
  // A headerless raw stream: unbounded, verified per connection.
  s.header_done = true;
  if (verify_) start_verifier(s);
}

std::size_t SinkCore::want(const SinkStream& s) const {
  if (!s.header_done) return s.reader.need();
  const std::uint64_t total = bounded(s) ? s.header->payload_length
                                         : std::numeric_limits<std::uint64_t>::max();
  if (s.payload_received < total) {
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(total - s.payload_received, kSinkReadBytes));
  }
  if (has_digest(s) && s.trailer_got < kDigestTrailerBytes) {
    return kDigestTrailerBytes - s.trailer_got;
  }
  return kSinkReadBytes;  // surplus: drained and dropped
}

SinkAction SinkCore::ingest(SinkStream& s, std::span<const std::uint8_t> data) {
  LSL_PRECONDITION(data.size() <= want(s), "sink fed past a frame boundary");
  if (s.refused) return SinkAction::kDrop;
  if (!s.header_done) {
    SessionHeader h;
    switch (s.reader.feed(data, &h)) {
      case HeaderReader::Status::kNeedMore:
        return SinkAction::kRead;
      case HeaderReader::Status::kReject:
        LSL_LOG_WARN("sink: malformed session header, refused");
        s.header_done = true;
        s.refused = true;
        s.ended = true;
        s.ok = false;
        return SinkAction::kReport;
      case HeaderReader::Status::kDone:
        s.header = std::move(h);
        s.header_done = true;
        return on_header(s);
    }
  }
  return feed_payload(s, data);
}

SinkAction SinkCore::on_header(SinkStream& s) {
  const SessionHeader& h = *s.header;
  if (h.stripe) {
    const StripeInfo& info = *h.stripe;
    // The lane's claimed extent must fit its plan, and its plan the
    // session's, or offers could land outside the merged stream and throw
    // (decoding validates the stripe block, not the lengths around it).
    const std::uint64_t lane_total = h.resume_offset + h.payload_length;
    bool sane = info.mode == StripeMode::kContiguous
                    ? lane_total <= info.session_bytes - info.range_lo
                    : lane_total <= stripe::round_robin_lane_bytes(info);
    std::unique_ptr<SinkGroup>& group = groups_[h.session];
    if (group) {
      const StripeInfo& first = *group->first_header.stripe;
      sane = sane && info.session_bytes == first.session_bytes &&
             info.stripe_count == first.stripe_count;
    } else if (sane) {
      group = std::make_unique<SinkGroup>(h, seed_, verify_ && check_content_,
                                          s.accepted);
    }
    if (!sane) {
      LSL_LOG_WARN("sink: lane claims bytes outside its plan, refused");
      s.refused = true;
      s.ended = true;
      s.ok = false;
      return SinkAction::kDrop;
    }
    s.group = group.get();
    // The cursor places lane bytes in the merged stream; a replacement
    // lane's resume_offset skips what the dead lane already delivered.
    s.cursor.emplace(info, lane_total);
    s.cursor->skip(h.resume_offset);
    return SinkAction::kRead;
  }
  if (ledger_ != nullptr && bounded(s) && !h.has_digest()) {
    // Bounded, digest-free sessions — the resumable kind migration rides —
    // are tracked by id across connections.
    s.ledger = ledger_;
    s.base = ledger_->open(h, s.accepted);
    attached_[h.session].push_back(&s);
    return SinkAction::kRead;
  }
  if (verify_) start_verifier(s);
  return SinkAction::kRead;
}

SinkAction SinkCore::feed_payload(SinkStream& s,
                                  std::span<const std::uint8_t> data) {
  if (wants_payload(s)) {
    payload_bytes_ += data.size();
    if (s.group != nullptr) {
      s.payload_received += data.size();
      feed_lane(s, data);
      return SinkAction::kRead;
    }
    if (s.ledger != nullptr) return feed_ledger(s, data);
    if (s.verifier) verify(s, data);
    s.payload_received += data.size();
    report(s, LaneReport::Event::kProgress, data.size());
    return SinkAction::kRead;
  }
  if (has_digest(s) && s.trailer_got < kDigestTrailerBytes) {
    std::copy(data.begin(), data.end(), s.trailer.begin() + s.trailer_got);
    s.trailer_got += data.size();
    if (s.group != nullptr && s.trailer_got == kDigestTrailerBytes &&
        !s.group->trailer) {
      s.group->trailer = to_digest(s.trailer);
      maybe_resolve(*s.group);
    }
    return SinkAction::kRead;
  }
  LSL_LOG_DEBUG("sink: %zu unexpected trailing bytes", data.size());
  return SinkAction::kRead;
}

bool SinkCore::wants_payload(const SinkStream& s) const {
  return s.header_done &&
         (!bounded(s) || s.payload_received < s.header->payload_length);
}

void SinkCore::start_verifier(SinkStream& s) {
  s.verifier.emplace(seed_, check_content_);
  ++verifying_;
}

void SinkCore::verify(SinkStream& s, std::span<const std::uint8_t> data) {
  if (held_by_ == &s) flush_held();  // its bytes stay in order
  if (held_by_ != nullptr) {
    PayloadVerifier::feed_pair(*held_by_->verifier, held_, *s.verifier, data);
    paired_bytes_ += held_.size() + data.size();
    held_by_ = nullptr;
  } else if (verifying_ >= 2) {
    held_.assign(data.begin(), data.end());
    held_by_ = &s;
  } else {
    s.verifier->feed(data);
  }
}

void SinkCore::flush_held() {
  held_by_->verifier->feed(held_);
  held_by_ = nullptr;
}

void SinkCore::feed_lane(SinkStream& s, std::span<const std::uint8_t> data) {
  SinkGroup& g = *s.group;
  const std::uint16_t lane = s.header->stripe->stripe_id;
  while (!data.empty()) {
    const auto r = s.cursor->next(data.size());
    if (r.length == 0) break;  // lane overran its plan; surplus is dropped
    const auto len = static_cast<std::size_t>(r.length);
    const std::uint64_t fresh = g.reasm.offer(lane, r.global, data.first(len));
    data = data.subspan(len);
    if (on_lane) {
      on_lane({.event = LaneReport::Event::kProgress,
               .lane = lane,
               .position = s.cursor->lane_position(),
               .bytes = r.length,
               .fresh = fresh,
               .buffered = g.reasm.buffered_bytes(),
               .holes = g.reasm.holes_outstanding(),
               .merged = g.reasm.complete()});
    }
  }
  maybe_resolve(g);
}

SinkAction SinkCore::feed_ledger(SinkStream& s,
                                 std::span<const std::uint8_t> data) {
  const SessionId& id = s.header->session;
  const std::uint64_t offset = s.base + s.payload_received;
  s.payload_received += data.size();
  SessionLedger& ledger = *s.ledger;
  switch (ledger.feed(id, offset, data, host_.now())) {
    case SessionLedger::Feed::kHeld:
      return SinkAction::kRead;
    case SessionLedger::Feed::kGap:
      // Acked bytes died with the old chain: refuse this connection.
      s.refused = true;
      s.ended = true;
      s.ok = false;
      return SinkAction::kClose;
    case SessionLedger::Feed::kCompleted:
      break;
  }
  // The verdict is a stream property, delivered to every connection still
  // carrying the session (husks included), and reported once.
  const SessionLedger::Session& ls = *ledger.find(id);
  SinkVerdict v;
  v.header = &ls.header;
  v.ok = ledger.content_ok(id);
  v.payload_bytes = ls.frontier;
  v.first_accept = ls.first_accept;
  if (const auto it = attached_.find(id); it != attached_.end()) {
    for (SinkStream* other : it->second) {
      if (other == &s) continue;
      other->ok = v.ok;
      other->ended = true;
      v.release.push_back(other);
    }
    attached_.erase(it);
  }
  s.ok = v.ok;
  s.ended = true;
  host_.on_stream_verdict(v);
  return SinkAction::kClose;
}

void SinkCore::maybe_resolve(SinkGroup& g) {
  if (g.reported || !g.reasm.complete() || !g.trailer) return;
  g.reported = true;
  g.ok = (!g.content || g.content->ok()) && g.reasm.digest() == *g.trailer;
  SinkVerdict v;
  v.header = &g.first_header;
  v.ok = g.ok;
  v.payload_bytes = g.reasm.frontier();
  v.first_accept = g.first_accept;
  // Release every lane that was waiting on the merge; lanes still
  // streaming (redundant surplus) get the status at their own EOF.
  v.release = std::move(g.parked);
  g.parked.clear();
  for (SinkStream* lane : v.release) lane->ok = g.ok;
  host_.on_stream_verdict(v);
}

void SinkCore::report(const SinkStream& s, LaneReport::Event e,
                      std::uint64_t bytes) {
  if (!on_lane || !s.header) return;
  const SessionHeader& h = *s.header;
  on_lane({.event = e,
           .lane = h.stripe ? h.stripe->stripe_id : std::uint16_t{0},
           .position = h.resume_offset + s.payload_received,
           .bytes = bytes,
           .fresh = bytes,
           .merged = e == LaneReport::Event::kProgress && bounded(s) &&
                     s.payload_received == h.payload_length});
}

SinkAction SinkCore::end(SinkStream& s, bool failed) {
  if (s.ended) return SinkAction::kDrop;
  s.ended = true;
  if (s.verifier) {
    if (held_by_ == &s) flush_held();  // the verdict covers every byte
    --verifying_;
  }
  if (!s.header_done) {
    s.ok = false;  // the connection died inside its header
    return SinkAction::kReport;
  }
  // Framing complete: the whole payload and, when flagged, the trailer.
  const bool framed =
      !failed && (!bounded(s) || s.payload_received == s.header->payload_length) &&
      (!has_digest(s) || s.trailer_got == kDigestTrailerBytes);
  if (s.ledger != nullptr) {
    // A husk of an abandoned chain, or a mid-stream death the source's
    // recovery takes from here: the verdict comes from the ledger.
    return SinkAction::kDrop;
  }
  report(s, framed ? LaneReport::Event::kDone : LaneReport::Event::kDead);
  if (s.group != nullptr) {
    SinkGroup& g = *s.group;
    // A dead lane closes without a status byte so the source re-stripes;
    // the merge keeps whatever it delivered.
    if (!framed) return SinkAction::kDrop;
    if (g.reported) {
      s.ok = g.ok;
      return SinkAction::kClose;
    }
    g.parked.push_back(&s);
    return SinkAction::kPark;
  }
  // The per-connection verdict: framing, seeded content, trailer MD5.
  s.ok = framed &&
         (!s.verifier ||
          (s.verifier->ok() && (!has_digest(s) || s.verifier->digest() ==
                                                      to_digest(s.trailer))));
  return SinkAction::kReport;
}

bool SinkCore::owes_status(const SinkStream& s) const {
  return s.group != nullptr && s.group->reported && !s.ended;
}

void SinkCore::forget(SinkStream& s) {
  if (held_by_ == &s) held_by_ = nullptr;
  if (s.verifier && !s.ended) --verifying_;
  if (s.group != nullptr) std::erase(s.group->parked, &s);
  if (s.ledger != nullptr) {
    const auto it = attached_.find(s.header->session);
    if (it != attached_.end()) {
      std::erase(it->second, &s);
      if (it->second.empty()) attached_.erase(it);
    }
  }
}

}  // namespace lsl::core
