#include "posix/client.hpp"

#include <linux/sockios.h>
#include <sys/epoll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <system_error>

#include "util/log.hpp"
#include "util/rng.hpp"

namespace lsl::posix {

// --- PosixSource -------------------------------------------------------------

PosixSource::PosixSource(EpollLoop& loop, PosixSourceConfig config)
    : loop_(loop),
      config_(std::move(config)),
      generator_(config_.payload_seed) {
  // Striped lanes recover from loss above this layer (a replacement lane
  // on a spare chain), never via kFlagResume.
  if (config_.stripe) config_.resumable = false;
  // An MD5 trailer hashes the whole stream through one connection; it
  // cannot rewind to a resume offset. Content verification for resumable
  // sessions comes from the sink's seeded generator instead.
  if (config_.resumable) config_.send_digest = false;
}

PosixSource::~PosixSource() {
  if (sock_.valid()) loop_.remove(sock_.get());
}

void PosixSource::start() {
  if (config_.session) {
    session_ = *config_.session;
  } else {
    util::Rng rng(config_.payload_seed ^ 0xabcdef);
    session_ = core::SessionId::generate(rng);
  }
  open_connection(0);
}

void PosixSource::open_connection(std::uint64_t offset) {
  staged_.clear();
  staged_off_ = 0;
  wire_written_ = 0;
  conn_offset_ = offset;
  acked_floor_ = std::max(acked_floor_, offset);
  write_done_ = false;
  payload_left_ = config_.payload_bytes - offset;
  generator_.seek(offset);

  const bool use_header = !config_.route.empty() || config_.send_digest ||
                          config_.resumable || config_.stripe.has_value();
  if (use_header) {
    core::SessionHeader h;
    h.session = session_;
    h.trace_id = config_.trace_id;
    h.stripe = config_.stripe;
    if (config_.send_digest) h.flags |= core::kFlagDigestTrailer;
    if (migrated_) {
      // A migrate connection is an ordinary session to every depot on the
      // fresh chain — only the sink (in adopt mode) splices it onto the
      // original stream at `offset`. payload_length is the REMAINDER, so
      // total = resume_offset + payload_length (docs/PROTOCOL.md, bit 3).
      h.flags |= core::kFlagMigrate;
      h.resume_offset = offset;
      h.payload_length = config_.payload_bytes - offset;
    } else {
      if (offset > 0) {
        h.flags |= core::kFlagResume;
        h.resume_offset = offset;
      }
      h.payload_length = config_.payload_bytes;
    }
    for (std::size_t i = 1; i < config_.route.size(); ++i) {
      h.hops.push_back({config_.route[i].addr, config_.route[i].port});
    }
    h.destination = {config_.destination.addr, config_.destination.port};
    core::encode_header(h, staged_);
  }
  header_wire_bytes_ = staged_.size();

  const InetAddress first =
      config_.route.empty() ? config_.destination : config_.route[0];
  sock_ = connect_tcp(first);
  if (!sock_.valid()) {
    handle_connection_error();
    return;
  }
  connecting_ = true;
  loop_.add(sock_.get(), EPOLLOUT | EPOLLIN,
            [this](std::uint32_t ev) { on_io(ev); });
  if (config_.dial_timeout.count() > 0) {
    timer_purpose_ = TimerPurpose::kDial;
    arm_timer_in(config_.dial_timeout);
  }
}

void PosixSource::arm_timer_in(std::chrono::milliseconds delay) {
  if (!timer_) {
    timer_ = std::make_unique<TimerFd>(loop_, [this] { on_timer(); });
  }
  timer_->arm(
      TimerFd::now_ns() +
      std::chrono::duration_cast<std::chrono::nanoseconds>(delay).count());
}

void PosixSource::on_timer() {
  const TimerPurpose purpose = timer_purpose_;
  timer_purpose_ = TimerPurpose::kNone;
  switch (purpose) {
    case TimerPurpose::kDial:
      if (!connecting_) return;  // dial resolved while the expiry was queued
      LSL_LOG_WARN("source: dial timed out after %lld ms",
                   static_cast<long long>(config_.dial_timeout.count()));
      handle_connection_error();
      break;
    case TimerPurpose::kBackoff:
      open_connection(acked_floor_);
      break;
    case TimerPurpose::kNone:
      break;
  }
}

void PosixSource::on_io(std::uint32_t events) {
  if (connecting_) {
    const int err = connect_result(sock_.get());
    if (err != 0) {
      LSL_LOG_WARN("source: connect failed: %s", std::strerror(err));
      handle_connection_error();
      return;
    }
    connecting_ = false;
    if (timer_purpose_ == TimerPurpose::kDial) {
      timer_purpose_ = TimerPurpose::kNone;
      if (timer_) timer_->disarm();
    }
  }
  if (events & EPOLLERR) {
    handle_connection_error();
    return;
  }
  if (events & EPOLLIN) {
    // The sink sends a one-byte end-to-end status before closing; a close
    // without it means the session died in transit.
    std::uint8_t buf[256];
    const long n = read_some(sock_.get(), buf, sizeof(buf));
    if (n > 0) status_ = buf[static_cast<std::size_t>(n) - 1];
    if (n == 0) {
      if (write_done_) {
        finish(status_ == core::kStatusOk);
      } else {
        handle_connection_error();  // orderly close mid-stream
      }
      return;
    }
    if (n == -2) {
      handle_connection_error();
      return;
    }
  }
  pump();
}

void PosixSource::note_acked() {
  if (!sock_.valid()) return;
  int outq = 0;
  if (::ioctl(sock_.get(), SIOCOUTQ, &outq) != 0 || outq < 0) return;
  const std::uint64_t acked_wire =
      wire_written_ - std::min<std::uint64_t>(
                          wire_written_, static_cast<std::uint64_t>(outq));
  if (acked_wire <= header_wire_bytes_) return;
  const std::uint64_t acked_payload =
      conn_offset_ + (acked_wire - header_wire_bytes_);
  acked_floor_ = std::max(
      acked_floor_, std::min(acked_payload, config_.payload_bytes));
}

void PosixSource::handle_connection_error() {
  if (finished_) return;
  // write_done_ does not make a death terminal: the chain may have died
  // holding acked-but-undelivered bytes, and a resume (or a driver-side
  // migrate) refills everything past the floor — open_connection resets
  // the write state for the new connection.
  if (!config_.resumable || !config_.reconnect_backoff) {
    finish(false);
    return;
  }
  const auto delay = config_.reconnect_backoff();
  if (!delay) {
    LSL_LOG_WARN("source: reconnect budget exhausted; giving up");
    gave_up_ = true;
    finish(false);
    return;
  }
  if (sock_.valid()) {
    loop_.remove(sock_.get());
    sock_.reset();
  }
  ++resumes_;
  LSL_LOG_INFO("source: connection lost; resuming from %llu after %lld ms",
               static_cast<unsigned long long>(acked_floor_),
               static_cast<long long>(delay->count()));
  // Wait on the event loop, not in it: a timerfd expiry re-dials, so a
  // sibling session (or the daemon under test) keeps being serviced while
  // this source backs off.
  timer_purpose_ = TimerPurpose::kBackoff;
  arm_timer_in(*delay);
}

bool PosixSource::migrate(std::vector<InetAddress> new_route,
                          std::uint64_t floor) {
  // Migration rides the resume machinery (a digest trailer cannot rewind)
  // and striped lanes re-stripe above this layer instead.
  if (!config_.resumable || config_.stripe) return false;
  if (finished_ || gave_up_) return false;
  if (floor >= config_.payload_bytes) return false;

  // Abandon the current chain: the dying depots park or fail the husk on
  // their own. Any pending dial/backoff timer belongs to the old chain too.
  if (timer_) timer_->disarm();
  timer_purpose_ = TimerPurpose::kNone;
  if (sock_.valid()) {
    loop_.remove(sock_.get());
    sock_.reset();
  }
  connecting_ = false;
  write_done_ = false;  // bytes past `floor` go out again, via the new chain
  status_ = 0;
  migrated_ = true;
  ++migrations_;
  config_.route = std::move(new_route);
  // The sink's frontier replaces — never maxes with — our first-hop ack
  // floor: SIOCOUTQ counts bytes the dying chain acknowledged but may
  // never deliver, and a reconnect floor above the sink's frontier would
  // open a gap the adoption ledger must refuse.
  acked_floor_ = floor;
  LSL_LOG_INFO("source: migrating at floor %llu",
               static_cast<unsigned long long>(floor));
  open_connection(floor);
  return true;
}

void PosixSource::pump() {
  if (finished_ || write_done_) return;
  for (;;) {
    // Flush the staged buffer.
    while (staged_off_ < staged_.size()) {
      const long n = write_some(sock_.get(), staged_.data() + staged_off_,
                                staged_.size() - staged_off_);
      if (n < 0) {
        handle_connection_error();
        return;
      }
      if (n == 0) {
        note_acked();
        return;  // kernel buffer full; EPOLLOUT re-arms us
      }
      staged_off_ += static_cast<std::size_t>(n);
      wire_written_ += static_cast<std::uint64_t>(n);
      note_acked();
    }
    staged_.clear();
    staged_off_ = 0;

    // Refill with payload or trailer.
    if (payload_left_ > 0) {
      const std::size_t chunk = static_cast<std::size_t>(
          std::min<std::uint64_t>(payload_left_, 64 * 1024));
      staged_.resize(chunk);
      if (config_.payload_fill) {
        config_.payload_fill(config_.payload_bytes - payload_left_, staged_);
      } else {
        generator_.generate(staged_);
      }
      if (!config_.trailer_digest) {
        hasher_.update(std::span<const std::uint8_t>(staged_.data(), chunk));
      }
      if (config_.corrupt_one_byte && !corrupted_yet_) {
        staged_[chunk / 2] ^= 0xff;  // after hashing: wire differs from hash
        corrupted_yet_ = true;
      }
      payload_left_ -= chunk;
      continue;
    }
    if (config_.send_digest && !trailer_sent_) {
      const md5::Digest d = config_.trailer_digest ? *config_.trailer_digest
                                                   : hasher_.finalize();
      staged_.assign(d.bytes.begin(), d.bytes.end());
      trailer_sent_ = true;
      continue;
    }
    break;
  }
  // Everything written: half-close and await the sink's close.
  ::shutdown(sock_.get(), SHUT_WR);
  write_done_ = true;
  loop_.modify(sock_.get(), EPOLLIN);
}

void PosixSource::finish(bool ok) {
  if (finished_) return;
  finished_ = true;
  timer_.reset();  // unregister so an idle loop can run dry and exit
  timer_purpose_ = TimerPurpose::kNone;
  if (sock_.valid()) {
    loop_.remove(sock_.get());
    sock_.reset();
  }
  if (on_done) on_done(ok);
}

// --- PosixSinkServer ---------------------------------------------------------

struct PosixSinkServer::Conn : core::SinkStream {
  Fd sock;
  /// A finished lane held open, off the loop, until its merge resolves.
  bool parked = false;
};

namespace {

std::uint8_t status_byte(bool ok) {
  return ok ? core::kStatusOk : core::kStatusFail;
}

double seconds_since(std::int64_t then, std::int64_t now) {
  return static_cast<double>(now - then) * 1e-9;
}

}  // namespace

PosixSinkServer::PosixSinkServer(EpollLoop& loop, const InetAddress& bind,
                                 bool expect_header,
                                 std::uint64_t payload_seed,
                                 bool verify_content)
    : loop_(loop),
      ledger_(payload_seed, verify_content),
      core_(*this, expect_header, /*verify=*/true, verify_content,
            payload_seed, nullptr) {
  listener_ = listen_tcp(bind, 64, &port_);
  if (!listener_.valid()) {
    throw std::system_error(errno, std::generic_category(), "sink: bind");
  }
  loop_.add(listener_.get(), EPOLLIN, [this](std::uint32_t) { on_accept(); });
}

PosixSinkServer::~PosixSinkServer() {
  if (listener_.valid()) loop_.remove(listener_.get());
  for (auto& c : conns_) {
    if (c->sock.valid()) loop_.remove(c->sock.get());
  }
}

std::int64_t PosixSinkServer::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void PosixSinkServer::on_accept() {
  for (;;) {
    Fd conn = accept_connection(listener_.get());
    if (!conn.valid()) return;
    auto c = std::make_unique<Conn>();
    c->sock = std::move(conn);
    core_.open(*c, now());
    Conn* cp = c.get();
    loop_.add(cp->sock.get(), EPOLLIN,
              [this, cp](std::uint32_t) { on_readable(cp); });
    conns_.push_back(std::move(c));
  }
}

void PosixSinkServer::on_readable(Conn* c) {
  std::uint8_t buf[core::kSinkReadBytes];
  for (;;) {
    const long n = read_some(c->sock.get(), buf, core_.want(*c));
    if (n < 0 && n != -2) return;  // drained for now
    const core::SinkAction action =
        n > 0 ? core_.ingest(*c, std::span<const std::uint8_t>(
                                     buf, static_cast<std::size_t>(n)))
              : core_.end(*c, /*failed=*/n == -2);
    switch (action) {
      case core::SinkAction::kRead:
        continue;
      case core::SinkAction::kReport: {
        SinkResult res;
        res.verified = c->ok;
        res.payload_bytes = c->payload_received;
        res.seconds = seconds_since(c->accepted, now());
        res.header = c->header;
        // End-to-end status byte, then close: the source's completion
        // signal.
        close_conn(c, status_byte(res.verified));
        if (on_complete) on_complete(res);
        return;
      }
      case core::SinkAction::kClose:
        close_conn(c, status_byte(c->ok));
        return;
      case core::SinkAction::kDrop:
        close_conn(c, std::nullopt);
        return;
      case core::SinkAction::kPark:
        c->parked = true;
        loop_.remove(c->sock.get());
        return;
    }
  }
}

void PosixSinkServer::on_stream_verdict(const core::SinkVerdict& v) {
  SinkResult res;
  res.verified = v.ok;
  res.payload_bytes = v.payload_bytes;
  res.seconds = seconds_since(v.first_accept, now());
  res.header = *v.header;
  for (core::SinkStream* s : v.release) {
    close_conn(static_cast<Conn*>(s), status_byte(v.ok));
  }
  if (on_complete) on_complete(res);
}

void PosixSinkServer::close_conn(Conn* c, std::optional<std::uint8_t> status) {
  core_.forget(*c);
  if (c->sock.valid()) {
    if (status) write_some(c->sock.get(), &*status, 1);
    if (!c->parked) loop_.remove(c->sock.get());
    c->sock.reset();
  }
  std::erase_if(conns_, [c](const auto& p) { return p.get() == c; });
}

}  // namespace lsl::posix
