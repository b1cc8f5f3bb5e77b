#include "posix/client.hpp"

#include <linux/sockios.h>
#include <sys/epoll.h>
#include <sys/ioctl.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <future>
#include <memory>
#include <stdexcept>
#include <system_error>
#include <type_traits>
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
  p.use_header = true;
  p.resumable = c.resumable;
  p.header.session = c.session.value_or(seeded_session(c.payload_seed));
  p.header.trace_id = c.trace_id;
  p.header.stripe = c.stripe;
  p.header.flags = core::kFlagDigestTrailer;
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

/// What a verdict carries across to the owner loop.
struct Verdict {
  std::optional<SinkResult> result;
  std::vector<engine::Fd> fds;
  std::uint8_t status = 0;
};

}  // namespace

PosixSinkServer::PosixSinkServer(engine::EpollEngine& owner,
                                 const InetAddress& bind,
                                 bool expect_header,
                                 std::uint64_t payload_seed,
                                 bool verify_content)
    : owner_(owner),
      ledger_(payload_seed, verify_content),
      core_(*this, expect_header, /*verify=*/true, verify_content,
            payload_seed, nullptr),
      verdict_fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
  listener_ = listen_tcp(bind, 64, &port_);
  if (!listener_.valid()) {
    throw std::system_error(errno, std::generic_category(), "sink: bind");
  }
  if (!verdict_fd_.valid()) {
    throw std::system_error(errno, std::generic_category(), "sink: eventfd");
  }
  // The sink thread is not running yet, so its engine is set up from here.
  engine_.add(listener_.get(), EPOLLIN,
              [this](std::uint32_t) { on_accept(); });
  engine_.set_wakeup_callback([this] { posts_.drain(); });
  owner_.add(verdict_fd_.get(), EPOLLIN,
             [this](std::uint32_t) { on_verdicts(); });
  thread_ = engine::ShardThread([this] {
    try {
      while (!stop_.load(std::memory_order_acquire)) engine_.run_once(-1);
    } catch (...) {
      // An epoll or accept failure reaches the owner: its run_once
      // rethrows it.
      failed_.store(true, std::memory_order_release);
      post_to_owner(
          [e = std::current_exception()] { std::rethrow_exception(e); });
    }
  });
}

PosixSinkServer::~PosixSinkServer() {
  stop_.store(true, std::memory_order_release);
  engine_.wakeup();
  thread_.join();
  owner_.remove(verdict_fd_.get());
  // Undelivered verdicts and open connections close their fds as the
  // members go.
}

template <typename Fn>
auto PosixSinkServer::on_sink_thread(Fn fn) {
  using R = std::invoke_result_t<Fn>;
  auto answer = std::make_shared<std::promise<R>>();
  std::future<R> result = answer->get_future();
  const bool wake = posts_.post([answer, fn = std::move(fn)] {
    if constexpr (std::is_void_v<R>) {
      fn();
      answer->set_value();
    } else {
      answer->set_value(fn());
    }
  });
  if (wake) engine_.wakeup();
  while (result.wait_for(std::chrono::milliseconds(100)) !=
         std::future_status::ready) {
    if (failed_.load(std::memory_order_acquire)) {
      throw std::runtime_error("sink: thread stopped on an error");
    }
  }
  return result.get();
}

std::uint64_t PosixSinkServer::paired_bytes() {
  return on_sink_thread([this] { return core_.paired_bytes(); });
}

std::size_t PosixSinkServer::owed_statuses() {
  return on_sink_thread([this] {
    return static_cast<std::size_t>(std::count_if(
        conns_.begin(), conns_.end(),
        [this](const auto& c) { return core_.owes_status(*c); }));
  });
}

void PosixSinkServer::set_adopt_migrations(bool on) {
  on_sink_thread([this, on] { core_.set_ledger(on ? &ledger_ : nullptr); });
}

std::uint64_t PosixSinkServer::session_frontier(const core::SessionId& id) {
  return on_sink_thread([this, id] { return ledger_.frontier(id); });
}

bool PosixSinkServer::session_completed(const core::SessionId& id) {
  return on_sink_thread([this, id] { return ledger_.completed(id); });
}

md5::Digest PosixSinkServer::session_digest(const core::SessionId& id) {
  return on_sink_thread([this, id] { return ledger_.digest(id); });
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
    engine_.add(cp->sock.get(), EPOLLIN,
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
    bytes_.store(core_.payload_bytes(), std::memory_order_relaxed);
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
        const std::uint8_t status = status_byte(res.verified);
        std::vector<engine::Fd> fds;
        fds.push_back(release(c));
        post_verdict(std::move(res), std::move(fds), status);
        return;
      }
      case core::SinkAction::kClose: {
        // The status may belong to a verdict already posted (the lane
        // that outlived its merge, the connection that completed a
        // ledger session), so it follows that verdict to the owner.
        const std::uint8_t status = status_byte(c->ok);
        std::vector<engine::Fd> fds;
        fds.push_back(release(c));
        post_verdict(std::nullopt, std::move(fds), status);
        return;
      }
      case core::SinkAction::kDrop:
        release(c);
        return;
      case core::SinkAction::kPark:
        c->parked = true;
        engine_.remove(c->sock.get());
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
  std::vector<engine::Fd> fds;
  for (core::SinkStream* s : v.release) {
    fds.push_back(release(static_cast<Conn*>(s)));
  }
  post_verdict(std::move(res), std::move(fds), status_byte(v.ok));
}

engine::Fd PosixSinkServer::release(Conn* c) {
  core_.forget(*c);
  if (c->sock.valid() && !c->parked) engine_.remove(c->sock.get());
  engine::Fd fd = std::move(c->sock);
  std::erase_if(conns_, [c](const auto& p) { return p.get() == c; });
  return fd;
}

void PosixSinkServer::post_verdict(std::optional<SinkResult> result,
                                   std::vector<engine::Fd> fds,
                                   std::uint8_t status) {
  // A PostQueue task must be copyable and the fds are not, so the task
  // shares the verdict. An undelivered one closes its fds when the queue
  // goes.
  auto v = std::make_shared<Verdict>(
      Verdict{std::move(result), std::move(fds), status});
  post_to_owner([this, v] {
    if (v->result && on_complete) on_complete(*v->result);
    for (engine::Fd& fd : v->fds) {
      if (fd.valid()) write_some(fd.get(), &v->status, 1);
      fd.reset();
    }
  });
}

void PosixSinkServer::post_to_owner(engine::PostQueue::Task task) {
  if (!verdicts_.post(std::move(task))) return;  // a wakeup is pending
  const std::uint64_t one = 1;
  const auto n = ::write(verdict_fd_.get(), &one, sizeof one);
  (void)n;  // EAGAIN: the counter is saturated, a wakeup is pending
}

void PosixSinkServer::on_verdicts() {
  // Read the count before draining: a verdict posted after the drain took
  // its batch signals again.
  std::uint64_t count = 0;
  const auto n = ::read(verdict_fd_.get(), &count, sizeof count);
  (void)n;
  verdicts_.drain();
}

}  // namespace lsl::posix
