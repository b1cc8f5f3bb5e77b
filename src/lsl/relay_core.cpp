#include "lsl/relay_core.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace lsl::core {

const char* to_string(RelayState s) {
  switch (s) {
    case RelayState::kHeader: return "HEADER";
    case RelayState::kDial: return "DIAL";
    case RelayState::kStream: return "STREAM";
    case RelayState::kDone: return "DONE";
  }
  return "?";
}

const util::TransitionTable<RelayState, kRelayStateCount>&
relay_transition_table() {
  using S = RelayState;
  static const util::TransitionTable<RelayState, kRelayStateCount> table{
      "lsd-relay", to_string, {
          {S::kHeader, S::kDial},    // header parsed, dialing downstream
          {S::kDial, S::kStream},    // downstream connect completed
          // finish() is legal from every live state; kDone is terminal —
          // there is deliberately no edge out of it.
          {S::kHeader, S::kDone},
          {S::kDial, S::kDone},
          {S::kStream, S::kDone},
      }};
  return table;
}

HeaderReader::Status HeaderReader::feed(std::span<const std::uint8_t> bytes,
                                        SessionHeader* out) {
  LSL_PRECONDITION(bytes.size() <= need(),
                   "header reader fed past the header's end");
  std::copy(bytes.begin(), bytes.end(), buf_.begin() + got_);
  got_ += bytes.size();
  if (need() > 0) return Status::kNeedMore;
  const std::span<const std::uint8_t> have(buf_.data(), got_);
  if (want_ == kHeaderPrefixBytes) {
    // The prefix fixes the total length (at most kMaxHeaderBytes); a bad
    // magic, version or hop count is a rejection before anything else is
    // read.
    const auto len = header_length(have);
    if (!len) return Status::kReject;
    want_ = *len;
    if (need() > 0) return Status::kNeedMore;
  }
  auto h = decode_header(have);
  if (!h) return Status::kReject;
  *out = std::move(*h);
  return Status::kDone;
}

RelayCore::RelayCore(const char* name, RelayHost& host,
                     util::EventQueue& timers, RelayStats& stats,
                     const live::LivenessConfig& liveness,
                     std::int64_t resume_grace, std::size_t max_sessions)
    : name_(name),
      host_(host),
      stats_(stats),
      liveness_(liveness),
      resume_grace_(resume_grace),
      max_sessions_(max_sessions),
      timers_(timers) {}

RelayCore::Admission RelayCore::admit(bool under_pressure) {
  if (draining_) {
    // A draining depot finishes what it has but adopts nothing new; the
    // RST sends the source to its retry policy (and another depot).
    ++stats_.sessions_refused_drain;
    ++report_.refused;
    return Admission::kDrain;
  }
  // Injected SYN/accept failure: claim one drop if any is left (the
  // count may be shared with other shards of the depot).
  std::uint32_t drops = accept_drops_->load(std::memory_order_relaxed);
  while (drops > 0) {
    if (accept_drops_->compare_exchange_weak(drops, drops - 1,
                                             std::memory_order_relaxed)) {
      return Admission::kDrop;
    }
  }
  if (max_sessions_ > 0 && live_ >= max_sessions_) return Admission::kCap;
  // Memory admission control: refusing with a hard reset (not a slow
  // header timeout) lets the source's RoutePolicy back off at once.
  if (under_pressure) return Admission::kPressure;
  return Admission::kAccept;
}

void RelayCore::accept(RelaySession& s) {
  ++stats_.sessions_accepted;
  ++live_;
  s.accept_ns = host_.now();
  s.live.attach(&timers_, &liveness_,
                [this, &s](live::DeadlineKind k) { on_deadline(s, k); });
  if (live_metrics_ != nullptr) {
    s.live.set_rate_hook([this](double bps) {
      // Gauge min-tracking makes this the slowest-relay figure: every
      // watchdog window reports its rate, and `min` keeps the floor.
      live_metrics_->slowest_relay_bps->set(bps);
    });
  }
  s.live.on_accepted(s.accept_ns);
}

void RelayCore::header_done(RelaySession& s) {
  s.trace_id = s.header.trace_id;
  if (s.header.stripe) s.stripe_lane = s.header.stripe->stripe_id;
  if (tracer_ != nullptr && s.trace_id != 0) {
    // Backfilled: the interval opened at accept, but the join key only
    // exists once the header is parsed.
    tracer_->mark(s.trace_id, span::kSpanAccept, span_sec(s.accept_ns));
    tracer_->emit(s.trace_id, span::kSpanHeaderRead, span_sec(s.accept_ns),
                  span_sec(host_.now()));
  }
}

void RelayCore::dialing(RelaySession& s) {
  s.state.transition(RelayState::kDial);
  s.dial_start_ns = host_.now();
  // The dial deadline covers any setup latency + the handshake.
  s.live.on_header_done(s.dial_start_ns);
}

void RelayCore::connected(RelaySession& s) {
  s.state.transition(RelayState::kStream);
  s.live.on_connected(host_.now());
  if (tracer_ != nullptr && s.trace_id != 0) {
    // The same interval the dial liveness deadline bounds.
    tracer_->emit(s.trace_id, span::kSpanDial, span_sec(s.dial_start_ns),
                  span_sec(host_.now()));
  }
}

void RelayCore::finish(RelaySession& s, bool ok) {
  flush_stream_window(s);
  s.state.transition(RelayState::kDone);
  if (s.parked) unpark(s);
  s.live.cancel_all();
  --live_;
  if (ok) {
    ++stats_.sessions_completed;
    if (draining_ && !drain_done_) ++report_.completed;
  } else {
    ++stats_.sessions_failed;
  }
}

bool RelayCore::parkable(const RelaySession& s, bool up_eof) const {
  // After EOF the source has nothing left to resume; before the header
  // there is no session to resume.
  return resume_grace_ > 0 && !up_eof && s.header.session.valid() &&
         (s.state == RelayState::kDial || s.state == RelayState::kStream);
}

void RelayCore::park(RelaySession& s) {
  flush_stream_window(s);
  s.parked = true;
  ++parked_;
  ++stats_.sessions_parked;
  index_[s.header.session] = &s;
  // A parked relay is deliberately dormant: its clock is the resume grace,
  // not the liveness deadlines.
  s.live.cancel_all();
  s.park_due = host_.now() + resume_grace_;
  s.park_token = timers_.schedule_at(s.park_due, [this, &s] {
    s.park_token = util::kInvalidEvent;
    expire(s);
  });
  if (tracer_ != nullptr && s.trace_id != 0) {
    tracer_->mark(s.trace_id, span::kSpanPark, span_sec(host_.now()),
                  s.payload_pulled);
  }
  LSL_LOG_INFO("%s: parked session %s at offset %llu", name_,
               s.header.session.hex().c_str(),
               static_cast<unsigned long long>(s.payload_pulled));
}

void RelayCore::unpark(RelaySession& s) {
  s.parked = false;
  --parked_;
  const auto it = index_.find(s.header.session);
  if (it != index_.end() && it->second == &s) index_.erase(it);
  timers_.cancel(s.park_token);
  s.park_token = util::kInvalidEvent;
}

RelaySession* RelayCore::resume(RelaySession& fresh) {
  expire_parked();
  const auto it = index_.find(fresh.header.session);
  if (it == index_.end()) {
    LSL_LOG_WARN("%s: resume refused: unknown or expired session %s", name_,
                 fresh.header.session.hex().c_str());
    return nullptr;
  }
  RelaySession& p = *it->second;
  const std::uint64_t offset = fresh.header.resume_offset;
  if (offset > p.payload_pulled) {
    // The source believes more was delivered than the depot holds — bytes
    // lost in flight when the old connection died. The stream cannot be
    // made gap-free, so the whole session fails now (PROTOCOL.md §6).
    LSL_LOG_WARN("%s: resume refused: offset %llu beyond pulled %llu", name_,
                 static_cast<unsigned long long>(offset),
                 static_cast<unsigned long long>(p.payload_pulled));
    host_.fail_parked(p);
    return nullptr;
  }
  unpark(p);
  p.discard_left = p.payload_pulled - offset;
  ++stats_.sessions_resumed;
  // The husk that carried the resume header leaves service uncounted.
  fresh.state.transition(RelayState::kDone);
  fresh.live.cancel_all();
  --live_;
  // The merged relay is streaming again: the idle/stall watchdog restarts
  // from the resume instant.
  p.live.on_connected(host_.now());
  if (tracer_ != nullptr && p.trace_id != 0) {
    tracer_->mark(p.trace_id, span::kSpanResume, span_sec(host_.now()),
                  offset);
  }
  LSL_LOG_INFO("%s: resumed session %s from offset %llu (discarding %llu)",
               name_, p.header.session.hex().c_str(),
               static_cast<unsigned long long>(offset),
               static_cast<unsigned long long>(p.discard_left));
  return &p;
}

void RelayCore::expire_parked() {
  if (index_.empty()) return;
  const std::int64_t now = host_.now();
  std::vector<RelaySession*> expired;
  for (const auto& [id, s] : index_) {
    if (s->park_due <= now) expired.push_back(s);
  }
  for (RelaySession* s : expired) expire(*s);
}

void RelayCore::expire(RelaySession& s) {
  LSL_LOG_WARN("%s: parked session %s expired unresumed", name_,
               s.header.session.hex().c_str());
  host_.fail_parked(s);
}

void RelayCore::on_deadline(RelaySession& s, live::DeadlineKind kind) {
  if (s.done() || s.parked) return;
  LSL_LOG_WARN("%s: %s deadline expired for session %s", name_,
               live::to_string(kind),
               s.state != RelayState::kHeader ? s.header.session.hex().c_str()
                                              : "<none>");
  switch (kind) {
    case live::DeadlineKind::kHeader: ++stats_.timeouts_header; break;
    case live::DeadlineKind::kDial: ++stats_.timeouts_dial; break;
    case live::DeadlineKind::kIdle: ++stats_.timeouts_idle; break;
    case live::DeadlineKind::kStall: ++stats_.timeouts_stall; break;
    case live::DeadlineKind::kDrain:
      return;  // daemon-wide; handled by on_drain_deadline
  }
  if (live_metrics_ != nullptr) live_metrics_->on_timeout(kind);
  host_.on_deadline(s, kind);
}

void RelayCore::begin_drain() {
  if (draining_) return;
  draining_ = true;
  drain_done_ = false;
  drain_start_ = host_.now();
  report_ = {};
  report_.in_flight_at_start = live_ - parked_;
  LSL_LOG_INFO("%s: drain started with %llu in-flight session(s)", name_,
               static_cast<unsigned long long>(report_.in_flight_at_start));
  if (live_metrics_ != nullptr) live_metrics_->drains_started->inc();
  if (liveness_.drain_deadline > 0) {
    drain_token_ =
        timers_.schedule_at(drain_start_ + liveness_.drain_deadline, [this] {
          drain_token_ = util::kInvalidEvent;
          on_drain_deadline();
        });
  }
  maybe_finish_drain();
}

void RelayCore::maybe_finish_drain() {
  if (!draining_ || drain_done_ || live_ > parked_) return;
  drain_done_ = true;
  report_.parked = parked_;
  timers_.cancel(drain_token_);
  drain_token_ = util::kInvalidEvent;
  if (live_metrics_ != nullptr && !report_.expired) {
    live_metrics_->drains_completed->inc();
  }
  if (tracer_ != nullptr) {
    // Trace id 0 = node scope: the drain belongs to the depot, not to any
    // one session flowing through it.
    tracer_->emit(0, span::kSpanDrain, span_sec(drain_start_),
                  span_sec(host_.now()), report_.completed);
  }
  LSL_LOG_INFO("%s: %s", name_, report_.summary().c_str());
  host_.on_drain_resolved(report_);
}

void RelayCore::on_drain_deadline() {
  if (!draining_ || drain_done_) return;
  report_.expired = true;
  if (live_metrics_ != nullptr) {
    live_metrics_->on_timeout(live::DeadlineKind::kDrain);
  }
  // Sessions that neither finished nor parked in time are torn down the
  // hard way — the drain's whole point is a bounded exit.
  report_.aborted = live_ - parked_;
  LSL_LOG_WARN("%s: drain deadline expired; aborting %llu straggler(s)",
               name_, static_cast<unsigned long long>(report_.aborted));
  host_.abort_stragglers();
  maybe_finish_drain();
}

void RelayCore::note_window(RelaySession& s, std::uint64_t took) {
  // The window opens at the first byte after the previous close, so idle
  // gaps between windows stay visible in the timeline.
  if (s.window_open_ns < 0) {
    s.window_open_ns = host_.now();
    s.window_base = s.relayed - took;
  }
  if (s.relayed - s.window_base >= span::kStreamWindowBytes) {
    flush_stream_window(s);
  }
}

void RelayCore::flush_stream_window(RelaySession& s) {
  if (tracer_ == nullptr || s.trace_id == 0 || s.window_open_ns < 0) return;
  tracer_->emit(s.trace_id, span::stream_window_name(s.stripe_lane),
                span_sec(s.window_open_ns), span_sec(host_.now()), s.relayed);
  s.window_open_ns = -1;
}

}  // namespace lsl::core
