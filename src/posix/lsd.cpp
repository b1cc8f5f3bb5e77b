#include "posix/lsd.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <system_error>
#include <type_traits>

#include "util/log.hpp"

namespace lsl::posix {

/// Per-session relay: the core's session state plus the sockets, the
/// splice pipe and the pooled buffers.
struct Lsd::Relay : core::RelaySession {
  Relay(buf::ChunkPool& pool, std::size_t buffer_bytes)
      : ring(pool, buffer_bytes) {}

  engine::Fd up;
  engine::Fd down;

  // Forwarded header.
  std::vector<std::uint8_t> fwd;
  std::size_t fwd_off = 0;

  // Bounded relay buffer: chunks drawn on demand from the daemon-wide
  // pool, returned the instant they drain.
  buf::ChunkRing ring;
  /// The ring refused an upstream read because the *pool* was dry (as
  /// opposed to this session's own cap); service_pool_waiters() re-pumps
  /// when chunks come back.
  bool pool_blocked = false;

  // Splice fast path: a kernel pipe between the two sockets. Invariant:
  // the pipe and the ring are never simultaneously nonempty — splicing in
  // requires an empty ring, ring fills require an empty pipe — so relative
  // byte order between the two stores never arises.
  engine::Fd pipe_r;
  engine::Fd pipe_w;
  std::size_t pipe_capacity = 0;
  std::size_t pipe_bytes = 0;     ///< bytes currently inside the pipe
  bool splice_ok = true;          ///< per-relay fallback latch
  bool pipe_tried = false;        ///< pipe creation attempted

  bool up_eof = false;
  bool flushed = false;  ///< EOF propagated downstream (SHUT_WR sent)

  // Reverse path (sink -> source): the end-to-end status byte and any
  // other upstream-bound traffic are relayed back verbatim.
  std::vector<std::uint8_t> rev;
  std::size_t rev_off = 0;

  // Current epoll interest, to avoid redundant epoll_ctl calls.
  std::uint32_t up_events = 0;
  std::uint32_t down_events = 0;

  // Health-plane attribution (populated only while a HealthBoard is
  // attached). next_hop_name scores the depot this relay dialed;
  // peer_name (the upstream's IP, ephemeral port dropped) takes the
  // park/salvage blame when the *source* side of the relay dies.
  std::string next_hop_name;
  std::string peer_name;

  // Bytes salvaged from a dying upstream's kernel buffer — older than
  // anything read after the resume, so the spill drains downstream after
  // the ring's pre-park contents and blocks new ring fills until empty.
  std::vector<std::uint8_t> spill;
  std::size_t spill_off = 0;

  bool spill_empty() const { return spill_off >= spill.size(); }
  /// Total payload bytes buffered anywhere in user space or the pipe.
  std::size_t buffered() const { return ring.size() + pipe_bytes; }
};

namespace {

/// Dotted-quad IP of the connected peer, without the (ephemeral) port —
/// the stable identity health observations are keyed by.
std::string peer_ip_of(int fd) {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  if (getpeername(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
    return {};
  }
  const std::uint32_t a = ntohl(sa.sin_addr.s_addr);
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (a >> 24) & 255,
                (a >> 16) & 255, (a >> 8) & 255, a & 255);
  return buf;
}

/// Arrange for close() to emit RST instead of an orderly FIN.
void arm_reset(int fd) {
  struct linger lg {1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
}

}  // namespace

LsdStats operator+(const LsdStats& a, const LsdStats& b) {
  // Every field is a 64-bit counter — the layout StatsBoard publishes word
  // by word — so the element-wise sum is a word-wise sum.
  static_assert(std::is_trivially_copyable_v<LsdStats> &&
                sizeof(LsdStats) % sizeof(std::uint64_t) == 0);
  constexpr std::size_t kWords = sizeof(LsdStats) / sizeof(std::uint64_t);
  std::uint64_t sum[kWords];
  std::uint64_t add[kWords];
  std::memcpy(sum, &a, sizeof a);
  std::memcpy(add, &b, sizeof b);
  for (std::size_t i = 0; i < kWords; ++i) sum[i] += add[i];
  LsdStats s;
  std::memcpy(&s, sum, sizeof s);
  return s;
}

Lsd::Lsd(engine::EpollEngine& loop, const LsdConfig& config)
    : loop_(loop),
      config_(config),
      core_("lsd", *this, loop.timers(), stats_, config_.liveness,
            std::chrono::nanoseconds(config_.resume_grace).count()) {
  pool_ = config_.shared_pool;
  if (pool_ == nullptr) {
    owned_pool_ = std::make_unique<buf::ChunkPool>(config_.pool);
    pool_ = owned_pool_.get();
  }
  listener_ = listen_tcp(config_.bind, 64, &port_, config_.reuse_port);
  if (!listener_.valid()) {
    throw std::system_error(errno, std::generic_category(), "lsd: bind");
  }
  loop_.add(listener_.get(), EPOLLIN, [this](std::uint32_t) { on_accept(); });
  LSL_LOG_INFO("lsd: listening on %s",
               InetAddress{config_.bind.addr, port_}.to_string().c_str());
}

Lsd::~Lsd() { shutdown(); }

void Lsd::shutdown() {
  if (listener_.valid()) {
    loop_.remove(listener_.get());
    listener_.reset();
  }
  while (!relays_.empty()) {
    finish(relays_.begin()->first, false);
  }
  // Every relay deadline went with its relay, and finishing the last one
  // resolved any drain: no timer of this daemon is left, so an otherwise
  // empty engine's run() returns.
  reap_finished();
}

void Lsd::reap_finished() { graveyard_.clear(); }

void Lsd::on_accept() {
  reap_finished();
  core_.expire_parked();
  for (;;) {
    engine::Fd conn = accept_connection(listener_.get());
    if (!conn.valid()) {
      // Out of descriptors: shed the connection rather than leave the
      // listener readable for the loop to spin on.
      if (!spare_.shed(listener_.get(), errno)) break;
      ++stats_.accepts_dropped;
      continue;
    }
    const auto verdict = core_.admit(pool_->under_pressure());
    if (verdict != core::RelayCore::Admission::kAccept) {
      // A hard reset, not a slow header timeout: the source goes elsewhere
      // (drain), sees the injected SYN/accept failure (drop), or backs off
      // until the pool's low watermark re-opens the door (pressure).
      if (verdict == core::RelayCore::Admission::kDrop) {
        ++stats_.accepts_dropped;
      } else if (verdict == core::RelayCore::Admission::kPressure) {
        ++stats_.sessions_refused;
      }
      arm_reset(conn.get());
      continue;
    }
    auto owned = std::make_unique<Relay>(*pool_, config_.buffer_bytes);
    Relay* r = owned.get();
    r->up = std::move(conn);
    if (health_ != nullptr) r->peer_name = peer_ip_of(r->up.get());
    relays_.emplace(r, std::move(owned));
    r->up_events = EPOLLIN;
    watch_upstream(r);
    core_.accept(*r);
  }
  service_pool_waiters();  // expire_parked() may have released chunks
}

void Lsd::watch_upstream(Relay* r) {
  // Each top-level event turn ends by re-pumping relays that stopped
  // reading on an empty pool — any turn may have released chunks.
  loop_.add(r->up.get(), EPOLLIN, [this, r](std::uint32_t ev) {
    on_upstream(r, ev);
    service_pool_waiters();
  });
}

void Lsd::on_upstream(Relay* r, std::uint32_t events) {
  LSL_PRECONDITION(r->state != RelayState::kDone,
                   "upstream event on a finished relay");
  if ((events & EPOLLOUT) && !flush_reverse(r)) return;
  if (events & (EPOLLERR | EPOLLHUP)) {
    // EPOLLHUP with pending data still allows reads; try to pump first.
    if (!pump_upstream(r)) return;
    if (!r->up_eof && (events & EPOLLERR)) {
      handle_upstream_failure(r);
    }
    return;
  }
  pump_upstream(r);
}

bool Lsd::flush_reverse(Relay* r) {
  LSL_PRECONDITION(r->state != RelayState::kDone,
                   "reverse flush on a finished relay");
  while (r->up.valid() && r->rev_off < r->rev.size()) {
    const long n = write_some(r->up.get(), r->rev.data() + r->rev_off,
                              r->rev.size() - r->rev_off);
    if (n < 0) {
      if (metrics_) metrics_->write_errors->inc();
      handle_upstream_failure(r);
      return false;
    }
    if (n == 0) break;  // upstream send buffer full; EPOLLOUT re-arms
    if (metrics_) metrics_->bytes_reverse->inc(static_cast<std::uint64_t>(n));
    r->rev_off += static_cast<std::size_t>(n);
    r->live.note_activity(now());
  }
  if (r->rev_off == r->rev.size()) {
    r->rev.clear();
    r->rev_off = 0;
  }
  update_interest(r);
  return true;
}

void Lsd::on_downstream(Relay* r, std::uint32_t events) {
  LSL_PRECONDITION(r->state != RelayState::kDone,
                   "downstream event on a finished relay");
  if (r->state == RelayState::kDial) {
    const int err = connect_result(r->down.get());
    if (err != 0) {
      LSL_LOG_WARN("lsd: downstream connect failed: %s", std::strerror(err));
      finish(r, false, LsdFailReason::kDial);
      return;
    }
    core_.connected(*r);
  }
  if (events & EPOLLERR) {
    finish(r, false, LsdFailReason::kPeerReset);
    return;
  }
  if (events & EPOLLIN) {
    // Reverse-path traffic (the sink's end-to-end status byte) is relayed
    // back to the upstream peer verbatim; EOF completes the session.
    std::uint8_t buf[4096];
    for (;;) {
      const long n = read_some(r->down.get(), buf, sizeof(buf));
      if (n == 0) {
        if (!flush_reverse(r)) return;
        // EOF before our own EOF was flushed = premature downstream close.
        finish(r, r->flushed, LsdFailReason::kOther);
        return;
      }
      if (n < 0) break;  // EAGAIN (-1) or error (-2: treat on next event)
      r->rev.insert(r->rev.end(), buf, buf + n);
      r->live.note_activity(now());
    }
    if (!flush_reverse(r)) return;
  }
  pump_downstream(r);
}

bool Lsd::pump_upstream(Relay* r) {
  LSL_PRECONDITION(r->state != RelayState::kDone,
                   "upstream pump on a finished relay");
  // Phase 1: header bytes, never reading past the header's last byte.
  while (r->state == RelayState::kHeader) {
    std::uint8_t tmp[core::kMaxHeaderBytes];
    const long n = read_some(r->up.get(), tmp, r->reader.need());
    if (n == 0) {
      finish(r, false, LsdFailReason::kHeader);  // EOF mid-header: truncated
      return false;
    }
    if (n == -2) return read_failed(r);
    if (n < 0) return true;  // EAGAIN
    const auto status = r->reader.feed(
        std::span<const std::uint8_t>(tmp, static_cast<std::size_t>(n)),
        &r->header);
    if (status == core::HeaderReader::Status::kReject) {
      LSL_LOG_WARN("lsd: malformed session header");
      finish(r, false, LsdFailReason::kHeader);
      return false;
    }
    if (status == core::HeaderReader::Status::kDone && !start_relay(r)) {
      return false;
    }
  }

  const std::uint64_t pulled_before = r->payload_pulled;
  // Phase 2: payload ingest. Salvaged (spill) bytes are older than
  // anything a read here would produce, so new fills wait until the spill
  // has drained downstream; a stalled daemon stops reading so TCP flow
  // control pushes back on the source. While nothing is buffered in user
  // space, bytes move socket→pipe via splice (zero-copy); otherwise they
  // land in pooled chunks.
  while (!r->up_eof && !stalled_ && r->spill_empty()) {
    // A resumed connection first retransmits bytes the relay already has;
    // drop the duplicated prefix (the ledger counts it as discarded).
    if (r->discard_left > 0) {
      std::uint8_t dump[4096];
      const std::size_t want = static_cast<std::size_t>(
          std::min<std::uint64_t>(r->discard_left, sizeof(dump)));
      const long n = read_some(r->up.get(), dump, want);
      if (n == 0) {
        r->up_eof = true;
        break;
      }
      if (n == -2) return read_failed(r);
      if (n < 0) break;  // EAGAIN
      core_.ingest(*r, static_cast<std::uint64_t>(n));  // all duplicates
      continue;
    }
    if (splice_eligible(r)) {
      if (!r->pipe_tried) {
        r->pipe_tried = true;
        r->pipe_capacity = make_pipe(&r->pipe_r, &r->pipe_w);
        if (r->pipe_capacity == 0) {
          r->splice_ok = false;  // no pipe: chunks from here on
          continue;
        }
      }
      if (r->pipe_bytes >= r->pipe_capacity) break;  // pipe full: backpressure
      // Bounding the request by the pipe's free space keeps EAGAIN
      // unambiguous: it can only mean "no socket data".
      const long n = splice_some(r->up.get(), r->pipe_w.get(),
                                 r->pipe_capacity - r->pipe_bytes);
      if (n == 0) {
        r->up_eof = true;
        break;
      }
      if (n == -1) break;  // EAGAIN: nothing to read
      if (n == -3) {
        // Kernel refuses splice on these fds; remember daemon-wide and
        // fall back to the chunk path for this and every later relay.
        splice_usable_ = false;
        r->splice_ok = false;
        continue;
      }
      if (n == -2) return read_failed(r);
      r->pipe_bytes += static_cast<std::size_t>(n);
      core_.ingest(*r, static_cast<std::uint64_t>(n));
      continue;
    }
    // Chunk path. Never start filling the ring while pipe bytes are
    // pending — draining the pipe first preserves byte order.
    if (r->pipe_bytes > 0) break;
    const std::span<std::uint8_t> win = r->ring.write_window();
    if (win.empty()) {
      // Either this session's cap (plain backpressure) or an exhausted
      // pool (remember to re-pump when chunks come back).
      r->pool_blocked = r->ring.pool_starved();
      break;
    }
    r->pool_blocked = false;
    const long n = read_some(r->up.get(), win.data(), win.size());
    if (n == 0) {
      r->up_eof = true;
      break;
    }
    if (n == -2) return read_failed(r);
    if (n < 0) break;  // EAGAIN
    r->ring.commit(static_cast<std::size_t>(n));
    core_.ingest(*r, static_cast<std::uint64_t>(n));
  }
  if (r->payload_pulled != pulled_before) r->live.note_activity(now());
  if (metrics_) {
    metrics_->ring_occupancy_bytes->set(static_cast<double>(r->buffered()));
  }

  if (!pump_downstream(r)) return false;
  update_interest(r);
  sync_liveness(r);
  return true;
}

bool Lsd::start_relay(Relay* r) {
  core_.header_done(*r);
  if (r->header.is_resume()) {
    // This connection re-binds a parked session rather than opening a new
    // relay; `r` is retired either way (its socket adopted on success, the
    // connection refused on failure).
    try_resume(r);
    return false;
  }
  if (metrics_) {
    metrics_->accept_to_dial_ms->observe(
        static_cast<double>(now() - r->accept_ns) / 1e6);
  }
  // Dial onward and stage the popped header.
  const core::HopAddress hop = r->header.next_hop();
  const InetAddress next{hop.addr, hop.port};
  if (health_ != nullptr) r->next_hop_name = next.to_string();
  core::encode_header(r->header.popped(), r->fwd);
  core_.dialing(*r);
  r->down = connect_tcp(next);
  if (!r->down.valid()) {
    finish(r, false, LsdFailReason::kDial);
    return false;
  }
  // Under an injected dial blackhole the connect's completion is never
  // observed (no EPOLLOUT interest), exactly like a SYN into the void;
  // only the dial deadline can resolve the relay.
  r->down_events =
      dial_blackhole_ ? 0u : static_cast<std::uint32_t>(EPOLLOUT | EPOLLIN);
  loop_.add(r->down.get(), r->down_events, [this, r](std::uint32_t ev) {
    on_downstream(r, ev);
    service_pool_waiters();
  });
  return true;
}

bool Lsd::pump_downstream(Relay* r) {
  LSL_PRECONDITION(r->state != RelayState::kDone,
                   "downstream pump on a finished relay");
  if (r->state != RelayState::kStream || stalled_) return true;
  const std::uint64_t relayed_before = stats_.bytes_relayed;

  // Forwarded header first, gathered with the first buffered payload so a
  // session open costs one syscall, not a small-write pair.
  while (r->fwd_off < r->fwd.size()) {
    struct iovec iov[2];
    int iovcnt = 1;
    iov[0].iov_base = r->fwd.data() + r->fwd_off;
    iov[0].iov_len = r->fwd.size() - r->fwd_off;
    const std::span<const std::uint8_t> win = r->ring.read_window();
    if (!win.empty()) {
      iov[1].iov_base = const_cast<std::uint8_t*>(win.data());
      iov[1].iov_len = win.size();
      iovcnt = 2;
    }
    const long n = writev_some(r->down.get(), iov, iovcnt);
    if (n < 0) return write_failed(r);
    if (n == 0) {
      update_interest(r);
      return true;
    }
    std::size_t took = static_cast<std::size_t>(n);
    const std::size_t hdr = std::min(took, r->fwd.size() - r->fwd_off);
    r->fwd_off += hdr;
    took -= hdr;
    if (took > 0) {
      r->ring.consume(took);
      relayed(r, took);
    }
  }

  // Then ring contents (pre-park bytes are older than any spill).
  while (!r->ring.empty()) {
    const std::span<const std::uint8_t> win = r->ring.read_window();
    const long n = write_some(r->down.get(), win.data(), win.size());
    if (n < 0) return write_failed(r);
    if (n == 0) break;  // downstream full
    r->ring.consume(static_cast<std::size_t>(n));
    relayed(r, static_cast<std::uint64_t>(n));
  }

  // Then the pipe (fast path; mutually exclusive with ring contents).
  while (r->ring.empty() && r->pipe_bytes > 0) {
    const long n =
        splice_some(r->pipe_r.get(), r->down.get(), r->pipe_bytes);
    if (n == -1) break;  // downstream full
    if (n == -2) return write_failed(r);
    if (n == -3 || n == 0) {
      // The outbound splice is refused (or the pipe misbehaved): rescue
      // the in-flight bytes into the spill and stay on the copy path.
      splice_usable_ = false;
      r->splice_ok = false;
      if (!drain_pipe_to_spill(r)) {
        finish(r, false, LsdFailReason::kOther);
        return false;
      }
      break;
    }
    r->pipe_bytes -= static_cast<std::size_t>(n);
    stats_.bytes_spliced += static_cast<std::uint64_t>(n);
    if (metrics_) metrics_->bytes_spliced->inc(static_cast<std::uint64_t>(n));
    relayed(r, static_cast<std::uint64_t>(n));
  }

  // Then bytes salvaged from a dead upstream.
  while (r->buffered() == 0 && !r->spill_empty()) {
    const long n = write_some(r->down.get(), r->spill.data() + r->spill_off,
                              r->spill.size() - r->spill_off);
    if (n < 0) return write_failed(r);
    if (n == 0) break;
    r->spill_off += static_cast<std::size_t>(n);
    relayed(r, static_cast<std::uint64_t>(n));
  }
  if (r->spill_empty() && !r->spill.empty()) {
    r->spill.clear();
    r->spill_off = 0;
  }
  if (metrics_) {
    metrics_->ring_occupancy_bytes->set(static_cast<double>(r->buffered()));
  }

  // Propagate EOF once everything is flushed.
  if (r->up_eof && r->buffered() == 0 && r->spill_empty() &&
      r->fwd_off == r->fwd.size() && !r->flushed) {
    ::shutdown(r->down.get(), SHUT_WR);
    r->flushed = true;
    // Relay completion is confirmed when the downstream peer closes
    // (on_downstream sees EOF); the upstream socket stays open until then.
  }
  update_interest(r);
  if (stats_.bytes_relayed != relayed_before) {
    r->live.note_progress(stats_.bytes_relayed - relayed_before);
    r->live.note_activity(now());
  }
  sync_liveness(r);
  // Byte-keyed fault triggers; the hook may crash/stall/reset this very
  // relay, so bail out if it did.
  if (on_progress && stats_.bytes_relayed != relayed_before) {
    on_progress(stats_.bytes_relayed);
    if (r->state == RelayState::kDone) return false;
  }
  return true;
}

bool Lsd::read_failed(Relay* r) {
  if (metrics_) metrics_->read_errors->inc();
  handle_upstream_failure(r);
  return false;
}

bool Lsd::write_failed(Relay* r) {
  if (metrics_) metrics_->write_errors->inc();
  finish(r, false, LsdFailReason::kPeerReset);
  return false;
}

void Lsd::relayed(Relay* r, std::uint64_t n) {
  stats_.bytes_relayed += n;
  if (metrics_) metrics_->bytes_relayed->inc(n);
  core_.note_stream(*r, n);
}

std::size_t Lsd::striped_relays() const {
  std::size_t n = 0;
  for (const auto& [_, r] : relays_) {
    if (r->stripe_lane >= 0) ++n;
  }
  return n;
}

bool Lsd::splice_eligible(const Relay* r) const {
  return config_.use_splice && splice_usable_ && r->splice_ok &&
         r->state == RelayState::kStream && r->ring.empty() &&
         r->spill_empty() && r->discard_left == 0 &&
         r->fwd_off == r->fwd.size();
}

bool Lsd::can_ingest(const Relay* r) const {
  if (splice_eligible(r)) {
    // Room in the pipe — or no pipe yet (the first eligible pump creates
    // it; a failure latches splice_ok off and the chunk predicate rules).
    return !r->pipe_tried || r->pipe_bytes < r->pipe_capacity;
  }
  return r->pipe_bytes == 0 && r->ring.can_accept();
}

void Lsd::update_interest(Relay* r) {
  // Upstream: read while the bytes could land somewhere (pipe space, ring
  // space, an acquirable chunk) and no EOF; write when reverse-path bytes
  // are pending. Reads also pause while the daemon is stalled, a spill is
  // draining, or the pool is dry — level-triggered epoll would spin on
  // data we refuse to consume.
  std::uint32_t up_want =
      (!r->up_eof && !stalled_ && r->spill_empty() &&
       (r->state == RelayState::kHeader || r->discard_left > 0 ||
        can_ingest(r)))
          ? static_cast<std::uint32_t>(EPOLLIN)
          : 0u;
  if (r->rev_off < r->rev.size()) up_want |= EPOLLOUT;
  if (r->up.valid() && up_want != r->up_events) {
    loop_.modify(r->up.get(), up_want);
    r->up_events = up_want;
  }
  // Downstream: write while anything is staged; always watch for EOF/err.
  if (r->down.valid() && r->state == RelayState::kStream) {
    std::uint32_t down_want = EPOLLIN;
    if (!stalled_ &&
        (r->buffered() > 0 || !r->spill_empty() ||
         r->fwd_off < r->fwd.size() || (r->up_eof && !r->flushed))) {
      down_want |= EPOLLOUT;
    }
    if (down_want != r->down_events) {
      loop_.modify(r->down.get(), down_want);
      r->down_events = down_want;
    }
  }
}

void Lsd::finish(Relay* r, bool ok, LsdFailReason reason) {
  if (r->done()) return;  // already finished
  core_.finish(*r, ok);
  if (!ok) {
    switch (reason) {
      case LsdFailReason::kDial: ++stats_.fail_dial; break;
      case LsdFailReason::kHeader: ++stats_.fail_header; break;
      case LsdFailReason::kPeerReset: ++stats_.fail_peer_reset; break;
      case LsdFailReason::kTimeout: ++stats_.fail_timeout; break;
      case LsdFailReason::kNone:
      case LsdFailReason::kOther: ++stats_.fail_other; break;
    }
  }
  // Score the depot this relay dialed: a clean completion promotes it
  // (and feeds the delivered rate into its EWMA); a dial failure or a
  // liveness timeout demotes it. Header/reset failures stay neutral —
  // they indict the upstream, not the next hop.
  if (health_ != nullptr && !r->next_hop_name.empty()) {
    const std::uint64_t now_ms = static_cast<std::uint64_t>(now() / 1'000'000);
    if (ok) {
      health_->observe_success(r->next_hop_name, now_ms);
      const double secs = static_cast<double>(now() - r->dial_start_ns) / 1e9;
      if (r->dial_start_ns > 0 && secs > 0.0 && r->payload_pulled > 0) {
        health_->observe_bps(
            r->next_hop_name,
            static_cast<double>(r->payload_pulled) * 8.0 / secs, now_ms);
      }
    } else if (reason == LsdFailReason::kDial) {
      health_->observe_failure(r->next_hop_name, now_ms);
    } else if (reason == LsdFailReason::kTimeout) {
      health_->observe_timeout(r->next_hop_name, now_ms);
    }
  }
  bury(r);
  core_.maybe_finish_drain();
}

void Lsd::bury(Relay* r) {
  // Sockets close now (peers must observe the teardown immediately), and
  // buffers go back to the pool now (live sessions must see the freed
  // memory immediately, not after the deferred delete) ...
  if (r->up.valid()) loop_.remove(r->up.get());
  if (r->down.valid()) loop_.remove(r->down.get());
  r->up.reset();
  r->down.reset();
  r->ring.clear();  // every chunk returns to the pool freelist here
  r->pipe_r.reset();
  r->pipe_w.reset();
  r->pipe_bytes = 0;
  // Swap-with-empty actually frees the heap blocks; clear() would keep
  // capacity alive for as long as the graveyard does.
  std::vector<std::uint8_t>().swap(r->spill);
  r->spill_off = 0;
  std::vector<std::uint8_t>().swap(r->rev);
  r->rev_off = 0;
  // ... but deletion is deferred: `r` may still be on the call stack
  // (finish() is reached from inside its own pump helpers), and keeping
  // the memory alive until the next safe point turns any late touch into
  // a checked kDone-contract failure instead of a use-after-free.
  const auto it = relays_.find(r);
  graveyard_.push_back(std::move(it->second));
  relays_.erase(it);
}

bool Lsd::drain_pipe_to_spill(Relay* r) {
  while (r->pipe_bytes > 0) {
    const std::size_t old = r->spill.size();
    r->spill.resize(old + r->pipe_bytes);
    const long n =
        read_some(r->pipe_r.get(), r->spill.data() + old, r->pipe_bytes);
    if (n <= 0) {
      // A pipe holding bytes must be readable; anything else means the
      // accounting is wrong or the pipe died.
      r->spill.resize(old);
      return false;
    }
    r->spill.resize(old + static_cast<std::size_t>(n));
    r->pipe_bytes -= static_cast<std::size_t>(n);
  }
  return true;
}

void Lsd::service_pool_waiters() {
  if (servicing_waiters_) return;
  servicing_waiters_ = true;
  std::vector<Relay*> blocked;
  for (const auto& [r, owned] : relays_) {
    if (r->pool_blocked && !r->parked) {
      blocked.push_back(r);
    }
  }
  for (Relay* r : blocked) {
    if (!pool_->can_acquire()) break;
    if (r->done() || !r->up.valid()) continue;  // finished meanwhile
    pump_upstream(r);
  }
  servicing_waiters_ = false;
}

void Lsd::handle_upstream_failure(Relay* r) {
  if (core_.parkable(*r, r->up_eof)) {
    park_relay(r);
  } else {
    finish(r, false, LsdFailReason::kPeerReset);
  }
}

void Lsd::salvage_upstream(Relay* r) {
  // Bytes already spliced into the pipe are older than anything still in
  // the socket's receive queue; they lead the spill.
  if (r->pipe_bytes > 0) drain_pipe_to_spill(r);
  if (!r->up.valid() || r->state == RelayState::kHeader || r->up_eof) return;
  std::uint8_t buf[16 * 1024];
  for (;;) {
    const long n = read_some(r->up.get(), buf, sizeof(buf));
    if (n <= 0) break;  // EAGAIN, EOF or error: nothing more to save
    const std::uint64_t kept = core_.ingest(*r, static_cast<std::uint64_t>(n));
    r->spill.insert(r->spill.end(), buf + n - kept, buf + n);
  }
}

void Lsd::park_relay(Relay* r) {
  // Everything the kernel already acknowledged on the source's behalf must
  // survive the fd: the resuming source will not retransmit acked bytes.
  core_.flush_stream_window(*r);
  const std::int64_t salvage_start = now();
  salvage_upstream(r);
  span::Tracer* tracer = core_.tracer();
  if (tracer != nullptr && r->trace_id != 0) {
    tracer->emit(r->trace_id, span::kSpanSalvage,
                 core::RelayCore::span_sec(salvage_start),
                 core::RelayCore::span_sec(now()), r->spill.size());
  }
  if (r->up.valid()) {
    loop_.remove(r->up.get());
    r->up.reset();
  }
  core_.park(*r);
  // The park indicts the peer whose connection died under the session,
  // not the depot we dialed onward.
  if (health_ != nullptr && !r->peer_name.empty()) {
    const std::uint64_t now_ms = static_cast<std::uint64_t>(now() / 1'000'000);
    health_->observe_park(r->peer_name, now_ms);
    if (!r->spill.empty()) health_->observe_salvage(r->peer_name, now_ms);
  }
  // Keep draining what we hold toward the downstream meanwhile.
  pump_downstream(r);
  // A drain treats parking as resolution: the session's fate now rests
  // with a future resume against whoever replaces this daemon.
  core_.maybe_finish_drain();
}

void Lsd::try_resume(Relay* fresh) {
  auto* p = static_cast<Relay*>(core_.resume(*fresh));
  if (p == nullptr) {
    finish(fresh, false, LsdFailReason::kHeader);
    return;
  }
  // The fd is still registered under the husk's callback from accept time;
  // re-register it under the adopting relay.
  loop_.remove(fresh->up.get());
  p->up = std::move(fresh->up);
  p->up_events = EPOLLIN;
  watch_upstream(p);
  // The husk that carried the resume header is retired; it counts as
  // neither a completed nor a failed session.
  bury(fresh);
  // Reverse bytes that queued while parked flow on the new connection,
  // then normal pumping takes over.
  if (!flush_reverse(p)) return;
  pump_upstream(p);
}

void Lsd::crash() {
  if (crashed_) return;
  crashed_ = true;
  if (listener_.valid()) {
    loop_.remove(listener_.get());
    listener_.reset();
  }
  while (!relays_.empty()) {
    Relay* r = relays_.begin()->first;
    if (r->up.valid()) arm_reset(r->up.get());
    if (r->down.valid()) arm_reset(r->down.get());
    finish(r, false, LsdFailReason::kOther);
  }
}

void Lsd::restart() {
  if (!crashed_) return;
  listener_ = listen_tcp(InetAddress{config_.bind.addr, port_}, 64, &port_,
                         config_.reuse_port);
  if (!listener_.valid()) {
    LSL_LOG_WARN("lsd: restart failed to re-bind port %u: %s",
                 static_cast<unsigned>(port_), std::strerror(errno));
    return;
  }
  crashed_ = false;
  loop_.add(listener_.get(), EPOLLIN, [this](std::uint32_t) { on_accept(); });
  LSL_LOG_INFO("lsd: restarted on port %u", static_cast<unsigned>(port_));
}

void Lsd::set_stalled(bool stalled) {
  if (stalled_ == stalled) return;
  stalled_ = stalled;
  std::vector<Relay*> live;
  live.reserve(relays_.size());
  for (const auto& [r, owned] : relays_) live.push_back(r);
  if (stalled_) {
    for (Relay* r : live) {
      update_interest(r);  // drop read/write interest
      // A stalled daemon is the one failing to progress; the watchdog
      // treats that as pending work so the stall deadline can catch a
      // `slow` injection that outlives its window.
      sync_liveness(r);
    }
    return;
  }
  for (Relay* r : live) {  // kick everything that waited out the stall
    if (r->done() || !pump_downstream(r) || r->done()) continue;
    if (r->up.valid()) {
      pump_upstream(r);
    } else {
      update_interest(r);
      sync_liveness(r);
    }
  }
  service_pool_waiters();
}

void Lsd::inject_upstream_reset() {
  std::vector<Relay*> targets;
  for (const auto& [r, owned] : relays_) {
    if (!r->parked && r->state != RelayState::kHeader && r->up.valid()) {
      targets.push_back(r);
    }
  }
  for (Relay* r : targets) {
    // Shut the socket down before the salvage: once it is, the kernel
    // answers any further upstream byte with a reset instead of acking
    // it, so the salvage reads everything the source saw acknowledged.
    // Without it a segment acked between the salvage's last read and the
    // close is lost, and the source resumes past a gap the depot must
    // refuse. park/finish then salvages the recv queue, and the armed
    // close emits RST so the source sees a hard mid-stream reset.
    ::shutdown(r->up.get(), SHUT_RDWR);
    arm_reset(r->up.get());
    handle_upstream_failure(r);
  }
}

// --- Liveness / drain --------------------------------------------------------

void Lsd::sync_liveness(Relay* r) {
  core_.sync_liveness(*r, stalled_,
                      r->buffered() > 0 || !r->spill_empty() ||
                          r->fwd_off < r->fwd.size());
}

void Lsd::on_deadline(core::RelaySession& s, live::DeadlineKind) {
  auto* r = static_cast<Relay*>(&s);
  // A timed-out peer gets a hard reset: it is by definition not reading
  // in an orderly way, so there is no FIN handshake worth waiting for.
  if (r->up.valid()) arm_reset(r->up.get());
  finish(r, false, LsdFailReason::kTimeout);
}

void Lsd::fail_parked(core::RelaySession& s) {
  finish(static_cast<Relay*>(&s), false, LsdFailReason::kPeerReset);
}

void Lsd::set_dial_blackhole(bool on) {
  if (dial_blackhole_ == on) return;
  dial_blackhole_ = on;
  if (on) return;
  // Repair: surface the connects that silently completed (or failed)
  // while the hole was open.
  for (const auto& [r, owned] : relays_) {
    if (r->state == RelayState::kDial && r->down.valid() &&
        r->down_events == 0) {
      r->down_events = EPOLLOUT | EPOLLIN;
      loop_.modify(r->down.get(), r->down_events);
    }
  }
}

void Lsd::begin_drain() { core_.begin_drain(); }

void Lsd::abort_stragglers() {
  std::vector<Relay*> stragglers;
  for (const auto& [r, owned] : relays_) {
    if (!r->parked) stragglers.push_back(r);
  }
  for (Relay* r : stragglers) {
    if (r->up.valid()) arm_reset(r->up.get());
    if (r->down.valid()) arm_reset(r->down.get());
    finish(r, false, LsdFailReason::kOther);
  }
}

}  // namespace lsl::posix
