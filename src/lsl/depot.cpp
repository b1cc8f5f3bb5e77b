#include "lsl/depot.hpp"

#include <algorithm>
#include <cassert>

#include "util/log.hpp"

namespace lsl::core {

DepotApp::DepotApp(tcp::TcpStack& stack, DepotConfig config,
                   SessionDirectory* dir)
    : stack_(stack),
      config_(config),
      dir_(dir),
      budget_(config.pool_budget_bytes, config.pool_low_watermark,
              config.pool_high_watermark),
      copy_done_(stack.sim().events(), [this] { copy_complete(); }),
      core_("depot", *this, stack.sim().events(), stats_, config_.liveness,
            config_.resume_grace, config_.max_sessions) {
  stack_.listen(config_.port,
                [this](tcp::TcpSocket* s) { on_accept(s); });
}

void DepotApp::on_accept(tcp::TcpSocket* up) {
  const RelayCore::Admission verdict = core_.admit(budget_.under_pressure());
  if (verdict != RelayCore::Admission::kAccept) {
    if (verdict == RelayCore::Admission::kPressure) {
      ++stats_.sessions_refused_memory;
    } else if (verdict != RelayCore::Admission::kDrain) {
      ++stats_.sessions_refused;
    }
    up->abort();
    return;
  }
  auto relay = std::make_unique<Relay>();
  Relay* r = relay.get();
  r->up = up;
  relays_.push_back(std::move(relay));
  core_.accept(*r);

  if (!up->config().carry_data) {
    // peek/consume split: only erase the directory entry once this relay
    // actually adopts the session, so a failed adoption leaves the entry
    // for the client's republish-and-reconnect cycle (resume).
    auto h = dir_ != nullptr ? dir_->peek(up->remote()) : std::nullopt;
    if (!h) {
      LSL_LOG_ERROR("depot: virtual session without published header");
      fail_relay(*r);
      return;
    }
    dir_->consume(up->remote());
    r->header = std::move(*h);
    r->header_virtual_left = r->header.encoded_size();
  }

  up->on_readable = [this, r] { pull_upstream(*r); };
  up->on_error = [this, r](tcp::TcpError) { on_upstream_error(*r); };
  if (up->readable() > 0 || up->eof()) pull_upstream(*r);
}

bool DepotApp::ingest_header(Relay& r) {
  if (!r.up->config().carry_data) {
    // Virtual mode: the header came from the directory at accept; only
    // its byte count travels.
    r.header_virtual_left -= r.up->recv_virtual(r.header_virtual_left);
    return r.header_virtual_left == 0;
  }
  std::uint8_t buf[kMaxHeaderBytes];
  while (r.up->readable() > 0) {
    const std::size_t got =
        r.up->recv(std::span<std::uint8_t>(buf, r.reader.need()));
    if (got == 0) break;
    const auto status =
        r.reader.feed(std::span<const std::uint8_t>(buf, got), &r.header);
    if (status == HeaderReader::Status::kDone) return true;
    if (status == HeaderReader::Status::kReject) {
      LSL_LOG_ERROR("depot: malformed LSL header");
      fail_relay(r);
      return false;
    }
  }
  return false;
}

void DepotApp::pull_upstream(Relay& r) {
  if (r.done()) return;

  // Phase 1: ingest the LSL header.
  if (r.state == RelayState::kHeader) {
    if (!ingest_header(r)) {
      if (!r.done() && r.up->eof()) fail_relay(r);  // truncated header
      return;
    }
    core_.header_done(r);

    // Phase 2a: a resume header re-binds an existing parked session
    // instead of dialing a new downstream path.
    if (r.header.is_resume()) {
      if (!try_resume(r)) fail_relay(r);
      return;  // `r` is a husk either way; the merged relay carries on
    }

    // Phase 2b: dial the next hop as soon as the header is known, after
    // the daemon's per-session processing delay.
    core_.dialing(r);
    if (config_.session_setup_latency > 0) {
      Relay* rp = &r;
      stack_.sim().events().schedule_in(config_.session_setup_latency,
                                        [this, rp] {
                                          if (!rp->done()) dial_downstream(*rp);
                                        });
    } else {
      dial_downstream(r);
    }
  }

  // Phase 3: relay payload through the bounded buffer with the copy model.
  pull_payload(r, /*ignore_space=*/false);
  sync_liveness(r);

  if (r.up->eof()) {
    r.up_eof = true;
    maybe_complete(r);
  }
}

void DepotApp::pull_payload(Relay& r, bool ignore_space) {
  // A stalled (slow-fault) depot stops relaying, but parked-session salvage
  // (ignore_space) still runs: those bytes were acked and must not be lost.
  if (stalled_ && !ignore_space) return;
  const bool real = r.up->config().carry_data;
  while (r.up->readable() > 0) {
    std::uint64_t space = ~std::uint64_t{0};
    if (!ignore_space) {
      space = config_.buffer_bytes > buffered(r)
                  ? config_.buffer_bytes - buffered(r)
                  : 0;
      space = std::min(space, budget_.headroom());
      if (space == 0) {
        begin_stall(r);
        return;  // backpressure: upstream window will close
      }
    }
    end_stall(r);

    const std::uint64_t want =
        std::min<std::uint64_t>({space, r.up->readable(), 64 * util::kKiB});
    std::vector<std::uint8_t> chunk;
    std::uint64_t got = 0;
    if (real) {
      chunk.resize(static_cast<std::size_t>(want));
      got = r.up->recv(chunk);
      chunk.resize(static_cast<std::size_t>(got));
    } else {
      got = r.up->recv_virtual(want);
    }
    if (got == 0) break;
    r.live.note_activity(stack_.sim().now());

    // Drop the duplicated prefix of a resumed session.
    const std::uint64_t kept = core_.ingest(r, got);
    if (kept < got) {
      if (real) {
        chunk.erase(chunk.begin(),
                    chunk.begin() + static_cast<long>(got - kept));
      }
      got = kept;
      if (got == 0) continue;
    }

    // Serial copy resource, shared by all of the daemon's relays: chunks
    // become downstream-eligible in FIFO order after the wakeup latency and
    // the proportional copy time, and concurrent sessions queue behind one
    // another for the host's copy bandwidth.
    const util::SimTime start =
        std::max(stack_.sim().now() + config_.wakeup_latency,
                 copy_busy_until_);
    const util::SimTime ready_at =
        start + config_.copy_rate.transmission_time(got);
    if (metrics_) {
      // Wait behind the daemon's serial copy resource, beyond the fixed
      // wakeup latency every pull pays — the §VII contention signal.
      const util::SimTime queued_from =
          stack_.sim().now() + config_.wakeup_latency;
      metrics_->copy_queue_delay_ms->observe(
          util::to_millis(start > queued_from ? start - queued_from : 0));
    }
    copy_busy_until_ = ready_at;
    // Salvage pulls (ignore_space) may overshoot the budget: those bytes
    // were acked to the sender and must not be dropped. Bounded pulls were
    // clamped to headroom above, so the non-forced reserve cannot fail.
    const bool reserved = budget_.reserve(got, /*force=*/ignore_space);
    assert(reserved);
    (void)reserved;
    r.in_copy_bytes += got;
    stats_.max_buffered = std::max(stats_.max_buffered, buffered(r));
    note_occupancy(r);
    in_copy_.push_back(CopyJob{&r, got, std::move(chunk)});
    copy_done_.push_at(ready_at);
  }
}

void DepotApp::dial_downstream(Relay& r) {
  const bool real = r.up->config().carry_data;

  const SessionHeader fwd = r.header.popped();
  const HopAddress next = r.header.next_hop();
  const sim::Endpoint next_ep{static_cast<sim::NodeId>(next.addr), next.port};

  r.down = stack_.connect(next_ep);
  if (!real && dir_ != nullptr) {
    dir_->publish(r.down->local(), fwd);
  }
  if (real) {
    encode_header(fwd, r.fwd_header);
  } else {
    r.fwd_virtual_left = fwd.encoded_size();
  }

  Relay* rp = &r;
  r.down->on_established = [this, rp] {
    if (rp->done()) return;
    core_.connected(*rp);
    pump_downstream(*rp);
  };
  r.down->on_writable = [this, rp] { pump_downstream(*rp); };
  r.down->on_error = [this, rp](tcp::TcpError) { fail_relay(*rp); };
  if (on_downstream_open) on_downstream_open(r.down);
}

void DepotApp::copy_complete() {
  CopyJob job = in_copy_.pop_front();
  Relay& r = *job.relay;
  if (r.done()) return;
  r.in_copy_bytes -= job.bytes;
  r.ready_bytes += job.bytes;
  if (!job.chunk.empty()) r.ready_chunks.push_back(std::move(job.chunk));
  note_occupancy(r);
  pump_downstream(r);
}

void DepotApp::pump_downstream(Relay& r) {
  if (r.done()) return;
  if (r.state != RelayState::kStream || stalled_) {
    sync_liveness(r);
    return;
  }
  const bool real = r.down->config().carry_data;
  const std::uint64_t relayed_before = stats_.bytes_relayed;

  // Forwarded header goes first.
  if (real && r.fwd_off < r.fwd_header.size()) {
    const std::size_t took = r.down->send(std::span<const std::uint8_t>(
        r.fwd_header.data() + r.fwd_off, r.fwd_header.size() - r.fwd_off));
    r.fwd_off += took;
    if (r.fwd_off < r.fwd_header.size()) return;
  }
  if (!real && r.fwd_virtual_left > 0) {
    const std::uint64_t took = r.down->send_virtual(r.fwd_virtual_left);
    r.fwd_virtual_left -= took;
    if (r.fwd_virtual_left > 0) return;
  }

  // Then buffered payload.
  bool freed = false;
  if (real) {
    while (!r.ready_chunks.empty()) {
      auto& front = r.ready_chunks.front();
      const std::size_t remaining = front.size() - r.ready_consumed;
      const std::size_t took = r.down->send(std::span<const std::uint8_t>(
          front.data() + r.ready_consumed, remaining));
      if (took == 0) break;
      r.ready_consumed += took;
      relayed(r, took);
      freed = true;
      if (r.ready_consumed == front.size()) {
        r.ready_chunks.pop_front();
        r.ready_consumed = 0;
      }
    }
  } else {
    while (r.ready_bytes > 0) {
      const std::uint64_t took = r.down->send_virtual(r.ready_bytes);
      if (took == 0) break;
      relayed(r, took);
      freed = true;
    }
  }

  if (freed) {
    end_stall(r);  // ring space exists again; reads may resume
    if (metrics_) note_occupancy(r);
    schedule_progress();
    // Space freed: resume reading from upstream (we may have declined
    // earlier).
    if (r.up != nullptr && r.up->readable() > 0) pull_upstream(r);
  }
  if (stats_.bytes_relayed != relayed_before) {
    r.live.note_progress(stats_.bytes_relayed - relayed_before);
    r.live.note_activity(stack_.sim().now());
  }
  sync_liveness(r);

  maybe_complete(r);
}

void DepotApp::relayed(Relay& r, std::uint64_t took) {
  r.ready_bytes -= took;
  budget_.release(took);
  stats_.bytes_relayed += took;
  if (metrics_) metrics_->bytes_relayed->inc(took);
  core_.note_stream(r, took);
}

void DepotApp::schedule_progress() {
  if (!on_progress || progress_scheduled_) return;
  progress_scheduled_ = true;
  stack_.sim().events().schedule_in(0, [this] {
    progress_scheduled_ = false;
    if (on_progress) on_progress(stats_.bytes_relayed);
  });
}

void DepotApp::crash() {
  if (crashed_) return;
  crashed_ = true;
  stack_.close_listener(config_.port);
  // fail_relay() unparks and cancels expiry per relay; afterwards nothing
  // resumable is left.
  for (std::size_t i = 0; i < relays_.size(); ++i) {
    Relay* r = relays_[i].get();
    if (!r->done()) fail_relay(*r);
  }
}

void DepotApp::restart() {
  if (!crashed_) return;
  crashed_ = false;
  stack_.listen(config_.port, [this](tcp::TcpSocket* s) { on_accept(s); });
}

void DepotApp::set_stalled(bool stalled) {
  if (stalled_ == stalled) return;
  stalled_ = stalled;
  for (std::size_t i = 0; i < relays_.size(); ++i) {
    Relay* r = relays_[i].get();
    if (r->done() || r->parked) continue;
    if (stalled_) {
      // A stalled depot should be moving bytes and is not — exactly what
      // the progress watchdog exists to catch; re-sync so it counts.
      sync_liveness(*r);
      continue;
    }
    // Un-stall: pending ready bytes flow again and upstream reads that
    // were declined resume.
    pump_downstream(*r);
    if (!r->done() && r->up != nullptr && r->up->readable() > 0) {
      pull_upstream(*r);
    }
  }
}

void DepotApp::inject_upstream_reset() {
  for (std::size_t i = 0; i < relays_.size(); ++i) {
    Relay* r = relays_[i].get();
    if (r->done() || r->parked || r->state == RelayState::kHeader ||
        r->up == nullptr) {
      continue;
    }
    // Enter the error path while the socket's receive buffer is intact so
    // park_relay() can salvage acked bytes, then RST the peer. The abort's
    // own error callback is harmless afterwards: parked and failed relays
    // return from on_upstream_error immediately.
    tcp::TcpSocket* up = r->up;
    on_upstream_error(*r);
    if (up->state() != tcp::TcpState::kClosed) up->abort();
  }
}

void DepotApp::on_upstream_error(Relay& r) {
  if (r.done() || r.parked) return;
  if (core_.parkable(r, r.up_eof)) {
    park_relay(r);
  } else {
    fail_relay(r);
  }
}

void DepotApp::park_relay(Relay& r) {
  // Salvage everything the dead connection's TCP had already received in
  // order — those bytes were acknowledged to the sender, so the resumed
  // connection will not carry them again. The ring may temporarily exceed
  // its configured bound here; that is the price of not losing acked data.
  pull_payload(r, /*ignore_space=*/true);
  end_stall(r);  // a parked relay is waiting for resume, not for ring space
  core_.park(r);
  pump_downstream(r);
  core_.maybe_finish_drain();
}

bool DepotApp::try_resume(Relay& fresh) {
  auto* old = static_cast<Relay*>(core_.resume(fresh));
  if (old == nullptr) return false;
  // Re-bind the fresh upstream connection to the parked relay; the husk
  // never pulled payload, so it holds no buffered bytes.
  old->up = fresh.up;
  fresh.up = nullptr;
  old->up->on_readable = [this, old] { pull_upstream(*old); };
  old->up->on_error = [this, old](tcp::TcpError) { on_upstream_error(*old); };
  pull_upstream(*old);
  return true;
}

void DepotApp::maybe_complete(Relay& r) {
  // EOF before the downstream is up waits: pump_downstream() re-invokes
  // this on establishment.
  if (r.state != RelayState::kStream || r.parked || !r.up_eof ||
      r.in_copy_bytes != 0 || r.ready_bytes != 0 || r.fwd_virtual_left != 0 ||
      r.fwd_off != r.fwd_header.size()) {
    return;
  }
  core_.finish(r, /*ok=*/true);
  end_stall(r);
  if (metrics_) {
    metrics_->relay_latency_ms->observe(
        util::to_millis(stack_.sim().now() - r.accept_ns));
  }
  r.down->close();
  r.up->close();  // completes the upstream FIN handshake from our side
  core_.maybe_finish_drain();
}

void DepotApp::begin_stall(Relay& r) {
  if (r.stall_since >= 0) return;  // already stalled
  r.stall_since = stack_.sim().now();
  ++stats_.backpressure_stalls;
  if (metrics_) metrics_->backpressure_stalls->inc();
}

void DepotApp::end_stall(Relay& r) {
  if (r.stall_since < 0) return;
  const util::SimDuration stalled = stack_.sim().now() - r.stall_since;
  r.stall_since = -1;
  stats_.backpressure_stall_time += stalled;
  if (metrics_) {
    metrics_->stall_time_ns->inc(static_cast<std::uint64_t>(stalled));
  }
}

void DepotApp::note_occupancy(const Relay& r) {
  if (!metrics_) return;
  metrics_->ring_occupancy_bytes->set(static_cast<double>(buffered(r)));
  metrics_->copy_queue_bytes->set(static_cast<double>(r.in_copy_bytes));
}

void DepotApp::fail_relay(Relay& r) {
  if (r.done()) return;
  core_.finish(r, /*ok=*/false);
  // The relay's buffered bytes are dead; hand their budget back now so
  // live sessions (and new admissions) see the space immediately. Late
  // copy_complete events on this relay return without touching accounts.
  budget_.release(buffered(r));
  end_stall(r);
  if (r.up != nullptr && r.up->state() != tcp::TcpState::kClosed) {
    r.up->abort();
  }
  if (r.down != nullptr && r.down->state() != tcp::TcpState::kClosed) {
    r.down->abort();
  }
  core_.maybe_finish_drain();
}

void DepotApp::sync_liveness(Relay& r) {
  core_.sync_liveness(r, stalled_,
                      buffered(r) > 0 || r.fwd_virtual_left > 0 ||
                          r.fwd_off < r.fwd_header.size());
}

void DepotApp::begin_drain() { core_.begin_drain(); }

void DepotApp::abort_stragglers() {
  for (std::size_t i = 0; i < relays_.size(); ++i) {
    Relay* r = relays_[i].get();
    if (!r->done() && !r->parked) fail_relay(*r);
  }
}

}  // namespace lsl::core
