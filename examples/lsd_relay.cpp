// lsd_relay — the real-socket artifact, end to end.
//
// Demo mode (default): starts two lsd depot daemons and an LSL sink in this
// process, then streams a session source -> depot1 -> depot2 -> sink over
// loopback TCP, with the MD5 stream digest verified at the far end. This is
// the paper's prototype in miniature: unprivileged user-level processes
// cascading standard TCP connections.
//
// Daemon mode: `lsd_relay --daemon <port> [buffer_bytes]` runs a
// forwarding daemon (a posix::ShardedLsd, one shard by default) on the
// given port until killed — usable as a real relay for any LSL client on
// the network. Daemon options:
//
//   --resume-grace=DUR  park sessions whose upstream dies and accept a
//                       kFlagResume reconnect for DUR (e.g. 2s, 500ms);
//                       default 0 = resume disabled (docs/PROTOCOL.md §6)
//   --fault-spec=SPEC   scripted fault injection against this daemon
//                       (crash/restart windows, refused accepts, mid-stream
//                       resets, stalls) in the grammar of docs/FAULTS.md
//   --liveness          enforce the recommended relay deadlines
//                       (docs/PROTOCOL.md §7): header/dial/idle timeouts
//                       and the min-progress stall watchdog
//   --drain-deadline=DUR  bound a SIGTERM graceful drain: in-flight
//                       sessions get DUR to finish (or park) before being
//                       aborted; default 30s with --liveness, unbounded
//                       otherwise
//   --spans-out=FILE    attach a span tracer ("lsd.<port>") and dump its
//                       flight recorder to FILE as JSONL on exit — after a
//                       SIGTERM drain resolves, and from the post-mortem
//                       hook if a contract aborts the daemon. Feed the
//                       per-depot files to tools/lsl_spans to merge a
//                       cascade's timeline (docs/OBSERVABILITY.md)
//   --admin-socket=PATH serve live introspection (stats|spans|health line
//                       protocol) on a Unix-domain socket at PATH, answered
//                       from the control thread, aggregating every shard
//   --shards=N          run N SO_REUSEPORT shard daemons — one acceptor +
//                       event loop + OS thread each — behind the one port,
//                       drawing on one shared memory budget (docs/ENGINE.md).
//                       Default 1
//   --health            attach a depot HealthBoard to every shard: the
//                       daemon scores every next hop it dials, and the
//                       admin `health` response gains per-depot rows
//                       (docs/HEALTH.md)
//   --gossip-peers=P1,P2  admin-socket paths of peer daemons to poll with
//                       the `gossip` command; their rows merge into the
//                       local board(s) by judgement blending. Implies
//                       --health; requires --admin-socket on the peers
//   --gossip-interval=DUR  poll cadence (default 1s)
//
// Any other `--option`, a third positional argument, or a port, buffer
// size or shard count that is not a whole number in range exits 2 with a
// message naming it, before anything binds.
//
// SIGTERM (or Ctrl-C) in daemon mode triggers a graceful drain: the daemon
// refuses new sessions, lets in-flight ones finish, then exits printing a
// drain report merged across shards.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "engine/epoll_engine.hpp"
#include "fault/spec.hpp"
#include "live/liveness.hpp"
#include "posix/admin.hpp"
#include "posix/client.hpp"
#include "posix/gossip_poller.hpp"
#include "posix/lsd.hpp"
#include "posix/sharded_lsd.hpp"
#include "span/span.hpp"
#include "util/units.hpp"

using namespace lsl;

namespace {

volatile std::sig_atomic_t g_drain_requested = 0;

void on_terminate_signal(int) { g_drain_requested = 1; }

constexpr int kMaxShards = 256;
constexpr std::uint64_t kMaxBuffer = util::kGiB;

/// Everything `--daemon` accepts.
struct DaemonOptions {
  std::uint16_t port = 4000;
  std::size_t buffer = 1024 * 1024;
  std::chrono::milliseconds resume_grace{0};
  std::string fault_spec;
  std::string spans_out;
  std::string admin_socket;
  live::LivenessConfig liveness;  // all-zero: deadlines off
  int shards = 1;
  bool health = false;                    ///< --health (or implied)
  std::vector<std::string> gossip_peers;  ///< --gossip-peers admin paths
  std::chrono::milliseconds gossip_interval{1000};
};

std::vector<std::string> split_commas(const std::string& list) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string item = list.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

int run_daemon(const DaemonOptions& opt) {
  posix::ShardedLsdConfig scfg;
  scfg.base.bind = posix::InetAddress{0, opt.port};  // INADDR_ANY
  scfg.base.buffer_bytes = opt.buffer;
  scfg.base.resume_grace = opt.resume_grace;
  scfg.base.liveness = opt.liveness;
  scfg.shards = opt.shards;
  scfg.health_plane = opt.health;

  // Declared before the daemon: shard teardown flushes open stream windows
  // through the tracer, so it must outlive the ShardedLsd. The recorder is
  // multi-writer safe, so all shards share one tracer. It is named after
  // the bound port once the daemon has bound it.
  std::unique_ptr<span::Tracer> tracer;
  if (!opt.spans_out.empty()) {
    tracer = std::make_unique<span::Tracer>("lsd");
    scfg.tracer = tracer.get();
  }
  if (!opt.fault_spec.empty()) {
    std::string err;
    const auto plan = fault::parse_fault_spec(opt.fault_spec, &err);
    if (!plan) {
      std::fprintf(stderr, "lsd: bad --fault-spec: %s\n", err.c_str());
      return 2;
    }
    scfg.fault_plan = *plan;
    std::printf("lsd: fault plan armed on every shard: %s\n",
                plan->to_spec().c_str());
  }

  posix::ShardedLsd daemon(scfg);

  if (tracer) {
    tracer->set_source("lsd." + std::to_string(daemon.port()));
    // If a contract aborts the daemon, the flight recorder's last moments
    // still reach the file.
    span::install_post_mortem(tracer.get(), opt.spans_out);
    std::printf("lsd: tracing to %s (source %s)\n", opt.spans_out.c_str(),
                tracer->source().c_str());
  }

  // The main thread is the control plane: it owns an engine of its own for
  // the admin socket and gossip and watches the drain flag; the shards do
  // all the relaying on their threads.
  engine::EpollEngine control;
  std::unique_ptr<posix::AdminServer> admin;
  if (!opt.admin_socket.empty()) {
    admin = std::make_unique<posix::AdminServer>(control, opt.admin_socket,
                                                 daemon);
    if (tracer) admin->set_tracer(tracer.get());
    std::printf("lsd: admin socket at %s\n", opt.admin_socket.c_str());
  }

  // Gossip rides the control loop: remote rows merge into every shard's
  // (mutex-guarded) board, so each shard routes on the fleet's judgement.
  std::unique_ptr<posix::GossipPoller> gossip;
  if (opt.health && !opt.gossip_peers.empty()) {
    posix::GossipPollerConfig gcfg;
    gcfg.peers = opt.gossip_peers;
    gcfg.interval = opt.gossip_interval;
    gossip = std::make_unique<posix::GossipPoller>(
        control, daemon.health_boards(), gcfg);
    std::printf("lsd: health plane on, gossiping with %zu peer(s) every "
                "%lld ms\n",
                opt.gossip_peers.size(),
                static_cast<long long>(opt.gossip_interval.count()));
  } else if (opt.health) {
    std::printf("lsd: health plane on\n");
  }

  // Handlers go in before the banner: a script may signal as soon as it
  // has read the port.
  std::signal(SIGTERM, on_terminate_signal);
  std::signal(SIGINT, on_terminate_signal);
  const char* plural = daemon.shard_count() == 1 ? "" : "s";
  std::printf("lsd: forwarding daemon on port %u (%d shard%s, buffer %zu "
              "bytes, resume grace %lld ms)\n",
              daemon.port(), daemon.shard_count(), plural, opt.buffer,
              static_cast<long long>(opt.resume_grace.count()));
  std::fflush(stdout);  // scripts and tests read the port from a pipe
  while (true) {
    if (g_drain_requested && !daemon.draining()) {
      std::printf("lsd: termination requested; draining %d shard%s...\n",
                  daemon.shard_count(), plural);
      daemon.begin_drain();
    }
    if (daemon.draining() && daemon.drain_done()) break;
    // The admin socket and the gossip cadence ride the control engine;
    // the 200 ms bound is only for watching the signal and drain flags.
    // run_once returns -1 on EINTR — which is exactly how SIGTERM
    // announces itself mid-epoll_wait — and the loop simply comes round
    // to see the flag.
    control.run_once(200);
  }
  const live::DrainReport rep = daemon.drain_report();
  std::printf("lsd: %s\n", rep.summary().c_str());  // "drain <state>: ..."
  if (tracer) {
    span::install_post_mortem(nullptr, "");  // normal exit: no crash hook
    if (span::dump_file(*tracer, opt.spans_out)) {
      std::printf("lsd: dumped %llu spans to %s\n",
                  static_cast<unsigned long long>(
                      tracer->recorder().recorded()),
                  opt.spans_out.c_str());
    } else {
      std::fprintf(stderr, "lsd: cannot write %s\n", opt.spans_out.c_str());
    }
  }
  return rep.expired ? 1 : 0;
}

int run_demo(std::uint64_t bytes) {
  engine::EpollEngine loop;

  posix::Lsd depot1(loop, posix::LsdConfig{});
  posix::Lsd depot2(loop, posix::LsdConfig{});
  posix::PosixSinkServer sink(loop, posix::InetAddress::loopback(0),
                              /*expect_header=*/true, /*payload_seed=*/2024);

  std::printf("depot 1 on 127.0.0.1:%u\n", depot1.port());
  std::printf("depot 2 on 127.0.0.1:%u\n", depot2.port());
  std::printf("sink    on 127.0.0.1:%u\n\n", sink.port());

  bool done = false;
  posix::SinkResult result;
  sink.on_complete = [&](const posix::SinkResult& r) {
    result = r;
    done = true;
  };

  posix::PosixSourceConfig cfg;
  cfg.route = {posix::InetAddress::loopback(depot1.port()),
               posix::InetAddress::loopback(depot2.port())};
  cfg.destination = posix::InetAddress::loopback(sink.port());
  cfg.payload_bytes = bytes;
  cfg.payload_seed = 2024;

  bool source_ok = false;
  posix::PosixSource source(loop, cfg);
  source.on_done = [&](bool ok) { source_ok = ok; };
  source.start();

  while (!done) {
    if (loop.run_once(1000) < 0) break;
  }
  // Let the source collect its end-to-end status byte.
  for (int i = 0; i < 50 && !source.finished(); ++i) loop.run_once(10);

  std::printf("session: %s\n",
              result.header ? result.header->session.hex().c_str() : "?");
  std::printf("relayed %s through 2 cascaded depots in %.3f s (%.1f Mbit/s)\n",
              util::format_bytes(result.payload_bytes).c_str(), result.seconds,
              result.seconds > 0
                  ? static_cast<double>(result.payload_bytes) * 8 / 1e6 /
                        result.seconds
                  : 0.0);
  std::printf("MD5 stream digest: %s\n",
              result.verified ? "VERIFIED" : "MISMATCH");
  std::printf("source end-to-end status: %s\n", source_ok ? "OK" : "FAILED");
  std::printf("depot1 relayed %llu bytes, depot2 relayed %llu bytes\n",
              static_cast<unsigned long long>(depot1.stats().bytes_relayed),
              static_cast<unsigned long long>(depot2.stats().bytes_relayed));
  return result.verified && source_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  if (argc > 1 && std::strcmp(argv[1], "--daemon") == 0) {
    DaemonOptions opt;
    bool have_port = false;
    bool have_buffer = false;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--resume-grace=", 0) == 0) {
        const auto d = fault::parse_duration(arg.substr(15));
        if (!d || *d < 0) {
          std::fprintf(stderr, "lsd: bad --resume-grace duration\n");
          return 2;
        }
        opt.resume_grace = std::chrono::milliseconds(*d / util::kMillisecond);
      } else if (arg.rfind("--fault-spec=", 0) == 0) {
        opt.fault_spec = arg.substr(13);
      } else if (arg.rfind("--spans-out=", 0) == 0) {
        opt.spans_out = arg.substr(12);
      } else if (arg.rfind("--admin-socket=", 0) == 0) {
        opt.admin_socket = arg.substr(15);
      } else if (arg.rfind("--shards=", 0) == 0) {
        const auto n = util::parse_count(arg.substr(9));
        if (!n || *n < 1 || *n > kMaxShards) {
          std::fprintf(stderr, "lsd: bad --shards (need 1..%d)\n",
                       kMaxShards);
          return 2;
        }
        opt.shards = static_cast<int>(*n);
      } else if (arg == "--health") {
        opt.health = true;
      } else if (arg.rfind("--gossip-peers=", 0) == 0) {
        opt.gossip_peers = split_commas(arg.substr(15));
        opt.health = true;  // gossip without a board is meaningless
      } else if (arg.rfind("--gossip-interval=", 0) == 0) {
        const auto d = fault::parse_duration(arg.substr(18));
        if (!d || *d <= 0) {
          std::fprintf(stderr, "lsd: bad --gossip-interval duration\n");
          return 2;
        }
        opt.gossip_interval =
            std::chrono::milliseconds(*d / util::kMillisecond);
      } else if (arg == "--liveness") {
        const auto drain = opt.liveness.drain_deadline;  // may be set already
        opt.liveness = live::LivenessConfig::recommended();
        if (drain > 0) opt.liveness.drain_deadline = drain;
      } else if (arg.rfind("--drain-deadline=", 0) == 0) {
        const auto d = fault::parse_duration(arg.substr(17));
        if (!d || *d < 0) {
          std::fprintf(stderr, "lsd: bad --drain-deadline duration\n");
          return 2;
        }
        opt.liveness.drain_deadline = *d;
      } else if (arg.rfind("--", 0) == 0) {
        std::fprintf(stderr, "lsd: unknown option %s\n", arg.c_str());
        return 2;
      } else if (!have_port) {
        const auto port = util::parse_count(arg);
        if (!port || *port > 65535) {
          std::fprintf(stderr, "lsd: bad port %s (need 0..65535)\n",
                       arg.c_str());
          return 2;
        }
        opt.port = static_cast<std::uint16_t>(*port);
        have_port = true;
      } else if (!have_buffer) {
        const auto buffer = util::parse_count(arg);
        if (!buffer || *buffer < 1 || *buffer > kMaxBuffer) {
          std::fprintf(stderr, "lsd: bad buffer size %s (need 1..%llu)\n",
                       arg.c_str(), static_cast<unsigned long long>(kMaxBuffer));
          return 2;
        }
        opt.buffer = static_cast<std::size_t>(*buffer);
        have_buffer = true;
      } else {
        std::fprintf(stderr, "lsd: unexpected argument %s\n", arg.c_str());
        return 2;
      }
    }
    return run_daemon(opt);
  }
  std::uint64_t bytes = 8 * util::kMiB;
  if (argc > 1) bytes = std::strtoull(argv[1], nullptr, 10);
  return run_demo(bytes);
}
