#include "posix/gossip_poller.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/un.h>

#include <cerrno>
#include <cstring>

#include "health/gossip.hpp"
#include "posix/socket_util.hpp"
#include "util/log.hpp"

namespace lsl::posix {

namespace {

constexpr char kCommand[] = "gossip\n";
constexpr std::size_t kCommandLen = sizeof(kCommand) - 1;
/// A runaway peer must not grow the buffer unbounded (mirrors the admin
/// server's own input cap).
constexpr std::size_t kMaxResponse = 1 << 20;

engine::Fd connect_unix(const std::string& path, bool* connecting) {
  *connecting = false;
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  if (path.size() >= sizeof(sa.sun_path)) {
    errno = ENAMETOOLONG;
    return engine::Fd{};
  }
  std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
  engine::Fd sock(
      ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!sock.valid()) return engine::Fd{};
  if (::connect(sock.get(), reinterpret_cast<const sockaddr*>(&sa),
                sizeof(sa)) != 0) {
    if (errno != EINPROGRESS && errno != EAGAIN) return engine::Fd{};
    *connecting = true;
  }
  return sock;
}

std::uint64_t steady_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

GossipPoller::GossipPoller(engine::EpollEngine& loop,
                           std::vector<health::HealthBoard*> boards,
                           GossipPollerConfig config)
    : loop_(loop),
      boards_(std::move(boards)),
      config_(std::move(config)) {
  for (const std::string& path : config_.peers) {
    auto p = std::make_unique<Peer>();
    p->path = path;
    peers_.push_back(std::move(p));
  }
  if (!peers_.empty()) tick_ = loop_.schedule_in(0, [this] { tick(); });
}

GossipPoller::~GossipPoller() {
  loop_.timers().cancel(tick_);
  for (auto& p : peers_) {
    if (p->sock.valid()) loop_.remove(p->sock.get());
  }
}

void GossipPoller::tick() {
  for (auto& p : peers_) {
    // A poll still in flight at the next tick is wedged; drop it and
    // start fresh (the peer may have restarted with a new socket file).
    if (p->sock.valid()) abandon(*p);
    start_poll(*p);
  }
  tick_ = loop_.schedule_in(
      std::chrono::nanoseconds(config_.interval).count(), [this] { tick(); });
}

void GossipPoller::start_poll(Peer& p) {
  p.sent = 0;
  p.in.clear();
  p.sock = connect_unix(p.path, &p.connecting);
  if (!p.sock.valid()) {
    // Peer not up (yet): quietly count it and retry next tick — gossip is
    // advisory, a missing peer must never spam the log from a hot path.
    ++failed_;
    return;
  }
  Peer* pp = &p;
  loop_.add(p.sock.get(), EPOLLOUT | EPOLLIN,
            [this, pp](std::uint32_t ev) { on_event(*pp, ev); });
}

void GossipPoller::on_event(Peer& p, std::uint32_t events) {
  if (!p.sock.valid()) return;  // stale event after an abandon
  if (p.connecting) {
    if (connect_result(p.sock.get()) != 0) {
      finish_poll(p, false);
      return;
    }
    p.connecting = false;
  }
  if ((events & EPOLLOUT) && !pump_send(p)) return;
  if (events & EPOLLIN) {
    std::uint8_t buf[4096];
    for (;;) {
      const long n = read_some(p.sock.get(), buf, sizeof(buf));
      if (n == -1) break;  // EAGAIN
      if (n <= 0) {        // EOF or fatal before the terminator
        finish_poll(p, false);
        return;
      }
      p.in.append(reinterpret_cast<const char*>(buf),
                  static_cast<std::size_t>(n));
      if (p.in.size() > kMaxResponse) {
        finish_poll(p, false);
        return;
      }
    }
    // Response framing: lines, then one blank line.
    if (p.in.find("\n\n") != std::string::npos) {
      const std::uint64_t now_ms = steady_ms();
      for (const health::DepotHealth& row : health::decode_gossip(p.in)) {
        for (health::HealthBoard* b : boards_) {
          b->merge(row, config_.weight, now_ms);
        }
        ++merged_;
      }
      finish_poll(p, true);
      return;
    }
  }
  if (events & (EPOLLHUP | EPOLLERR)) finish_poll(p, false);
}

bool GossipPoller::pump_send(Peer& p) {
  while (p.sent < kCommandLen) {
    const long n = write_some(
        p.sock.get(),
        reinterpret_cast<const std::uint8_t*>(kCommand) + p.sent,
        kCommandLen - p.sent);
    if (n < 0) {
      finish_poll(p, false);
      return false;
    }
    if (n == 0) return true;  // EAGAIN: EPOLLOUT will resume
    p.sent += static_cast<std::size_t>(n);
  }
  // Command fully sent: only the response matters now.
  loop_.modify(p.sock.get(), EPOLLIN);
  return true;
}

void GossipPoller::finish_poll(Peer& p, bool ok) {
  loop_.remove(p.sock.get());
  p.sock.reset();
  p.connecting = false;
  if (ok) {
    ++completed_;
  } else {
    ++failed_;
  }
}

void GossipPoller::abandon(Peer& p) {
  loop_.remove(p.sock.get());
  p.sock.reset();
  p.connecting = false;
  ++failed_;
}

}  // namespace lsl::posix
