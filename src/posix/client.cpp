#include "posix/client.hpp"

#include <linux/sockios.h>
#include <sys/epoll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstring>
#include <system_error>
#include <utility>

#include "util/log.hpp"
#include "util/rng.hpp"

namespace lsl::posix {

// --- PosixSource -------------------------------------------------------------

core::SessionId seeded_session(std::uint64_t seed) {
  util::Rng rng(seed ^ 0xabcdef);
  return core::SessionId::generate(rng);
}

namespace {

/// Payload bytes staged per write.
constexpr std::uint64_t kChunkBytes = 64 * 1024;

std::vector<core::HopAddress> hops_of(const std::vector<InetAddress>& route) {
  std::vector<core::HopAddress> hops;
  for (const InetAddress& a : route) hops.push_back({a.addr, a.port});
  return hops;
}

core::SourcePlan plan_of(const PosixSourceConfig& c) {
  core::SourcePlan p;
  p.payload_bytes = c.payload_bytes;
  p.payload_seed = c.payload_seed;
  p.use_header = !c.route.empty() || c.send_digest || c.resumable ||
                 c.stripe.has_value();
  p.resumable = c.resumable;
  p.header.session = c.session.value_or(seeded_session(c.payload_seed));
  p.header.trace_id = c.trace_id;
  p.header.stripe = c.stripe;
  if (c.send_digest) p.header.flags |= core::kFlagDigestTrailer;
  p.header.payload_length = c.payload_bytes;
  p.header.hops = hops_of(c.route);
  p.header.destination = {c.destination.addr, c.destination.port};
  // Half-way into the first chunk.
  if (c.corrupt_one_byte) {
    p.corrupt_at_byte = std::min(c.payload_bytes, kChunkBytes) / 2;
  }
  p.payload_fill = c.payload_fill;
  p.trailer_digest = c.trailer_digest;
  return p;
}

}  // namespace

PosixSource::PosixSource(engine::EpollEngine& loop, PosixSourceConfig config)
    : loop_(loop),
      config_(std::move(config)),
      core_(*this, plan_of(config_)),
      chunk_(static_cast<std::size_t>(
          std::min(config_.payload_bytes, kChunkBytes))) {}

PosixSource::~PosixSource() {
  disarm_timer();
  if (sock_.valid()) loop_.remove(sock_.get());
}

void PosixSource::start() { core_.start(); }

void PosixSource::dial() {
  const InetAddress first =
      config_.route.empty() ? config_.destination : config_.route[0];
  sock_ = connect_tcp(first);
  if (!sock_.valid()) {
    core_.lost();
    return;
  }
  connecting_ = true;
  loop_.add(sock_.get(), EPOLLOUT | EPOLLIN,
            [this](std::uint32_t ev) { on_io(ev); });
  if (config_.dial_timeout.count() > 0) {
    arm_timer(std::chrono::duration_cast<std::chrono::nanoseconds>(
                  config_.dial_timeout)
                  .count(),
              [this] {
                LSL_LOG_WARN(
                    "source: dial timed out after %lld ms",
                    static_cast<long long>(config_.dial_timeout.count()));
                core_.lost();
              });
  }
}

void PosixSource::hang_up() {
  disarm_timer();
  if (sock_.valid()) {
    loop_.remove(sock_.get());
    sock_.reset();
  }
  connecting_ = false;
  out_ = {};
  status_ = 0;
}

std::optional<std::int64_t> PosixSource::backoff() {
  if (!config_.reconnect_backoff) return std::nullopt;
  const auto delay = config_.reconnect_backoff();
  if (!delay) return std::nullopt;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(*delay).count();
}

void PosixSource::wait(std::int64_t delay) {
  // Wait on the event loop, not in it: a timer re-dials, so a sibling
  // session (or the daemon under test) keeps being serviced while this
  // source backs off.
  arm_timer(delay, [this] { core_.redial(); });
}

void PosixSource::end(bool ok) {
  disarm_timer();  // so an idle loop can run dry and exit
  if (sock_.valid()) {
    loop_.remove(sock_.get());
    sock_.reset();
  }
  if (on_done) on_done(ok);
}

void PosixSource::arm_timer(std::int64_t delay_ns,
                            std::function<void()> fn) {
  disarm_timer();
  timer_ = loop_.schedule_in(delay_ns, [this, fn = std::move(fn)] {
    timer_ = util::kInvalidEvent;
    fn();
  });
}

void PosixSource::disarm_timer() {
  loop_.timers().cancel(timer_);
  timer_ = util::kInvalidEvent;
}

void PosixSource::on_io(std::uint32_t events) {
  if (connecting_) {
    const int err = connect_result(sock_.get());
    if (err != 0) {
      LSL_LOG_WARN("source: connect failed: %s", std::strerror(err));
      core_.lost();
      return;
    }
    connecting_ = false;
    disarm_timer();  // the dial deadline
  }
  if (events & EPOLLERR) {
    core_.lost();
    return;
  }
  if (events & EPOLLIN) {
    // The sink sends a one-byte end-to-end status before closing; a close
    // without it means the session died in transit.
    std::uint8_t buf[256];
    const long n = read_some(sock_.get(), buf, sizeof(buf));
    if (n > 0) status_ = buf[static_cast<std::size_t>(n) - 1];
    if (n == 0) {
      core_.closed(status_ == core::kStatusOk);
      return;
    }
    if (n == -2) {
      core_.lost();
      return;
    }
  }
  pump();
}

void PosixSource::note_acked() {
  if (!sock_.valid()) return;
  int outq = 0;
  if (::ioctl(sock_.get(), SIOCOUTQ, &outq) != 0 || outq < 0) return;
  const std::uint64_t written = core_.written();
  core_.acked(written -
              std::min(written, static_cast<std::uint64_t>(outq)));
}

bool PosixSource::migrate(std::vector<InetAddress> new_route,
                          std::uint64_t floor) {
  if (!core_.can_migrate(floor)) return false;
  config_.route = std::move(new_route);
  return core_.migrate(hops_of(config_.route), floor);
}

void PosixSource::pump() {
  if (core_.finished() || core_.closing()) return;
  for (;;) {
    while (!out_.empty()) {
      const long n = write_some(sock_.get(), out_.data(), out_.size());
      if (n < 0) {
        core_.lost();
        return;
      }
      if (n == 0) {
        note_acked();
        return;  // kernel buffer full; EPOLLOUT re-arms us
      }
      out_ = out_.subspan(static_cast<std::size_t>(n));
      core_.wrote(static_cast<std::uint64_t>(n));
      note_acked();
    }
    out_ = core_.next(chunk_);
    if (out_.empty()) break;
  }
  // Everything written: half-close and await the sink's close.
  ::shutdown(sock_.get(), SHUT_WR);
  loop_.modify(sock_.get(), EPOLLIN);
  core_.half_closed();
}

// --- PosixSinkServer ---------------------------------------------------------

struct PosixSinkServer::Conn : core::SinkStream {
  engine::Fd sock;
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

PosixSinkServer::PosixSinkServer(engine::EpollEngine& loop,
                                 const InetAddress& bind,
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
    engine::Fd conn = accept_connection(listener_.get());
    if (!conn.valid()) {
      // Out of descriptors: shed the connection (see SpareFd).
      if (!spare_.shed(listener_.get(), errno)) return;
      continue;
    }
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
    const std::uint64_t payload_before = core_.payload_bytes();
    const long n = read_some(c->sock.get(), buf, core_.want(*c));
    if (n < 0 && n != -2) return;  // drained for now
    const core::SinkAction action =
        n > 0 ? core_.ingest(*c, std::span<const std::uint8_t>(
                                     buf, static_cast<std::size_t>(n)))
              : core_.end(*c, /*failed=*/n == -2);
    switch (action) {
      case core::SinkAction::kRead:
        // One payload read per readiness callback; header and trailer
        // reads go on, so the read that completes a payload is followed
        // by its trailer and verdict at once. The loop is level-triggered:
        // a socket with more queued is called again after the other ready
        // sockets had their turn, so sessions take turns and the core can
        // hash two sessions' chunks in one pass.
        if (core_.payload_bytes() != payload_before &&
            core_.wants_payload(*c)) {
          return;
        }
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
