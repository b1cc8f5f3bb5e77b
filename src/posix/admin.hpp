// Live daemon introspection over a Unix-domain socket.
//
// `lsd_relay --admin-socket=PATH` serves a one-line-command protocol on the
// daemon's own epoll loop — no extra thread, so every answer is a coherent
// snapshot taken between event-loop turns:
//
//   stats   ->  the attached metrics registry as JSONL (the same format
//               --metrics-out writes), or a single LsdStats JSON object
//               when no registry is attached
//   spans   ->  the flight recorder's retained spans as JSONL (the same
//               format tools/lsl_spans merges)
//   health  ->  one JSON object: liveness at a glance (relay counts,
//               drain state, session/byte counters)
//
// Every response ends with one blank line so clients can frame multi-line
// payloads; unknown commands answer {"error":...}. The full protocol is
// documented in docs/OBSERVABILITY.md §4.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/epoll_engine.hpp"
#include "engine/fd.hpp"

namespace lsl::metrics {
class Registry;
}
namespace lsl::span {
class Tracer;
}

namespace lsl::posix {

class AdminSource;

/// One admin endpoint bound to one daemon — the single-threaded Lsd or
/// the sharded runtime, via the AdminSource seam (posix/lsd.hpp); the
/// sharded daemon's `stats` and `health` sum per-shard counters. Binds
/// (and unlinks any stale socket file) in the constructor; throws
/// std::system_error on failure. Removes the socket file again on
/// destruction.
class AdminServer {
 public:
  AdminServer(engine::EpollEngine& loop, std::string socket_path,
              AdminSource& source);
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Attach the registry `stats` reports (must outlive the server); null
  /// detaches (stats falls back to the daemon's raw counters).
  void set_registry(const metrics::Registry* reg) { registry_ = reg; }

  /// Attach the tracer `spans` reads (must outlive the server); null
  /// detaches (spans answers an error line).
  void set_tracer(const span::Tracer* t) { tracer_ = t; }

  const std::string& path() const { return path_; }

 private:
  struct Conn {
    engine::Fd sock;
    std::string in;        ///< bytes read, scanned for newlines
    std::string out;       ///< staged response bytes
    std::size_t out_off = 0;
    std::uint32_t events = 0;  ///< current epoll interest mask
  };

  void on_accept();
  void on_conn(Conn* c, std::uint32_t events);
  /// Append the response for one command line to c->out.
  void handle_command(Conn* c, const std::string& line);
  std::string cmd_stats() const;
  std::string cmd_spans() const;
  std::string cmd_health() const;
  /// Depot scorecard rows in gossip wire format ("h1 ..." lines, or a
  /// lone "# none" comment when the board is empty or absent).
  std::string cmd_gossip() const;
  /// Write staged bytes; adjusts EPOLLOUT interest. False = peer gone
  /// (the connection was closed and `c` freed).
  bool flush(Conn* c);
  void close_conn(Conn* c);

  engine::EpollEngine& loop_;
  AdminSource& source_;
  std::string path_;
  engine::Fd listener_;
  const metrics::Registry* registry_ = nullptr;
  const span::Tracer* tracer_ = nullptr;
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace lsl::posix
