#include "posix/admin.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <system_error>

#include "health/gossip.hpp"
#include "metrics/export.hpp"
#include "metrics/metrics.hpp"
#include "posix/sharded_lsd.hpp"
#include "span/span.hpp"
#include "util/log.hpp"

namespace lsl::posix {

namespace {

engine::Fd listen_unix(const std::string& path) {
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
  // A stale socket file from a previous (crashed) daemon would make bind
  // fail with EADDRINUSE even though nobody is listening; remove it first.
  ::unlink(path.c_str());
  if (::bind(sock.get(), reinterpret_cast<const sockaddr*>(&sa),
             sizeof(sa)) != 0) {
    return engine::Fd{};
  }
  if (::listen(sock.get(), 8) != 0) return engine::Fd{};
  return sock;
}

}  // namespace

AdminServer::AdminServer(engine::EpollEngine& loop, std::string socket_path,
                         const ShardedLsd& daemon)
    : loop_(loop), daemon_(daemon), path_(std::move(socket_path)) {
  listener_ = listen_unix(path_);
  if (!listener_.valid()) {
    throw std::system_error(errno, std::generic_category(),
                            "admin socket bind: " + path_);
  }
  loop_.add(listener_.get(), EPOLLIN, [this](std::uint32_t) { on_accept(); });
  LSL_LOG_INFO("admin: listening on %s", path_.c_str());
}

AdminServer::~AdminServer() {
  for (auto& c : conns_) {
    if (c->sock.valid()) loop_.remove(c->sock.get());
  }
  conns_.clear();
  if (listener_.valid()) loop_.remove(listener_.get());
  listener_.reset();
  ::unlink(path_.c_str());
}

void AdminServer::on_accept() {
  for (;;) {
    engine::Fd sock(::accept4(listener_.get(), nullptr, nullptr,
                      SOCK_NONBLOCK | SOCK_CLOEXEC));
    if (!sock.valid()) {
      // Out of descriptors: shed the connection (see SpareFd); otherwise
      // EAGAIN or an error, and nothing (more) is pending.
      if (!spare_.shed(listener_.get(), errno)) return;
      continue;
    }
    auto conn = std::make_unique<Conn>();
    Conn* c = conn.get();
    c->sock = std::move(sock);
    c->events = EPOLLIN;
    conns_.push_back(std::move(conn));
    loop_.add(c->sock.get(), EPOLLIN,
              [this, c](std::uint32_t ev) { on_conn(c, ev); });
  }
}

void AdminServer::on_conn(Conn* c, std::uint32_t events) {
  if (events & (EPOLLHUP | EPOLLERR)) {
    close_conn(c);
    return;
  }
  if (events & EPOLLIN) {
    std::uint8_t buf[4096];
    for (;;) {
      const long n = read_some(c->sock.get(), buf, sizeof(buf));
      if (n == -1) break;  // EAGAIN
      if (n <= 0) {        // EOF or fatal
        close_conn(c);
        return;
      }
      c->in.append(reinterpret_cast<const char*>(buf),
                   static_cast<std::size_t>(n));
      // A runaway sender (no newline) must not grow the buffer unbounded.
      if (c->in.size() > 4096) {
        close_conn(c);
        return;
      }
    }
    std::size_t nl;
    while ((nl = c->in.find('\n')) != std::string::npos) {
      std::string line = c->in.substr(0, nl);
      c->in.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      handle_command(c, line);
    }
  }
  flush(c);
}

void AdminServer::handle_command(Conn* c, const std::string& line) {
  if (line == "stats") {
    c->out += cmd_stats();
  } else if (line == "spans") {
    c->out += cmd_spans();
  } else if (line == "health") {
    c->out += cmd_health();
  } else if (line == "gossip") {
    c->out += cmd_gossip();
  } else {
    c->out +=
        "{\"error\":\"unknown command (try stats|spans|health|gossip)\"}\n";
  }
  c->out += "\n";  // blank line = end of response
}

std::string AdminServer::cmd_stats() const {
  std::ostringstream out;
  if (registry_) {
    metrics::write_jsonl(*registry_, out);
  } else {
    const LsdStats s = daemon_.stats();
    out << "{\"sessions_accepted\":" << s.sessions_accepted
        << ",\"sessions_completed\":" << s.sessions_completed
        << ",\"sessions_failed\":" << s.sessions_failed
        << ",\"bytes_relayed\":" << s.bytes_relayed
        << ",\"bytes_spliced\":" << s.bytes_spliced << "}\n";
  }
  return out.str();
}

std::string AdminServer::cmd_spans() const {
  if (!tracer_) return "{\"error\":\"no tracer attached\"}\n";
  std::ostringstream out;
  span::dump_jsonl(*tracer_, out);
  if (out.tellp() == 0) {
    // An empty recorder must still yield a response line: the framing is
    // "lines, then one blank line", and a bare blank line is too easy for
    // a client to mistake for a partial read.
    return "{\"spans\":0}\n";
  }
  return out.str();
}

std::string AdminServer::cmd_health() const {
  const AdminHealth h = daemon_.admin_health();
  const LsdStats& s = h.stats;
  std::ostringstream out;
  out << "{\"port\":" << h.port << ",\"live_relays\":" << h.live_relays
      << ",\"parked_relays\":" << h.parked_relays
      << ",\"shards\":" << h.shards;
  // Striped sessions: the field appears only while striped (wire v3)
  // relays are live, so unstriped daemons keep the historical output.
  if (h.stripes > 0) out << ",\"stripes\":" << h.stripes;
  out << ",\"draining\":" << (h.draining ? "true" : "false")
      << ",\"drain_done\":" << (h.drain_done ? "true" : "false")
      << ",\"sessions_accepted\":" << s.sessions_accepted
      << ",\"sessions_completed\":" << s.sessions_completed
      << ",\"sessions_failed\":" << s.sessions_failed
      << ",\"sessions_parked\":" << s.sessions_parked
      << ",\"sessions_resumed\":" << s.sessions_resumed
      << ",\"bytes_relayed\":" << s.bytes_relayed
      << ",\"bytes_spliced\":" << s.bytes_spliced;
  // Depot scorecard rows appear only when a HealthBoard is attached and
  // has observed something — a board-less daemon's output stays
  // byte-identical (same bargain as "stripes" above).
  if (!h.depots.empty()) {
    out << ",\"depots\":[";
    bool first = true;
    for (const auto& d : h.depots) {
      if (!first) out << ",";
      first = false;
      out << "{\"name\":\"" << d.name << "\",\"state\":\""
          << health::to_string(d.state) << "\",\"score\":" << d.score
          << ",\"ewma_bps\":" << d.ewma_bps
          << ",\"successes\":" << d.successes
          << ",\"failures\":" << d.failures << ",\"timeouts\":" << d.timeouts
          << ",\"parks\":" << d.parks << ",\"salvages\":" << d.salvages
          << ",\"transitions\":" << d.transitions << "}";
    }
    out << "]";
  }
  out << "}\n";
  return out.str();
}

std::string AdminServer::cmd_gossip() const {
  const AdminHealth h = daemon_.admin_health();
  if (h.depots.empty()) {
    // An empty scorecard must still yield a response line (same framing
    // argument as `spans`); decode_gossip skips `#` comments, so a poller
    // can feed the whole body straight through.
    return "# none\n";
  }
  return health::encode_gossip(h.depots);
}

bool AdminServer::flush(Conn* c) {
  while (c->out_off < c->out.size()) {
    const long n = write_some(
        c->sock.get(),
        reinterpret_cast<const std::uint8_t*>(c->out.data()) + c->out_off,
        c->out.size() - c->out_off);
    if (n < 0) {
      close_conn(c);
      return false;
    }
    if (n == 0) break;  // EAGAIN: wait for EPOLLOUT
    c->out_off += static_cast<std::size_t>(n);
  }
  if (c->out_off >= c->out.size()) {
    c->out.clear();
    c->out_off = 0;
  }
  const std::uint32_t want =
      EPOLLIN | (c->out.empty() ? 0u : static_cast<std::uint32_t>(EPOLLOUT));
  if (want != c->events) {
    c->events = want;
    loop_.modify(c->sock.get(), want);
  }
  return true;
}

void AdminServer::close_conn(Conn* c) {
  loop_.remove(c->sock.get());
  conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                              [c](const std::unique_ptr<Conn>& p) {
                                return p.get() == c;
                              }),
               conns_.end());
}

}  // namespace lsl::posix
