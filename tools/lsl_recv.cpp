// lsl_recv — command-line LSL session receiver (real sockets).
//
// Listens for LSL sessions, verifies each stream's MD5 trailer, and reports
// per-session statistics. Pairs with lsl_send and the lsd daemon
// (examples/lsd_relay --daemon).
//
//   lsl_recv PORT [-g SEED] [-1] [--metrics-out FILE] [--log-level LEVEL]
//
//   -g SEED  additionally verify content against the deterministic
//            generator stream with SEED (for lsl_send -n payloads)
//   -1       exit after the first completed session
//   --metrics-out FILE  dump receive-side metrics (sessions, bytes, event
//                       loop timing) on exit; .csv -> CSV, else JSONL
//   --log-level LEVEL   debug|info|warn|error|off (default warn)
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "engine/epoll_engine.hpp"
#include "metrics/export.hpp"
#include "metrics/instruments.hpp"
#include "metrics/metrics.hpp"
#include "posix/client.hpp"
#include "posix/socket_util.hpp"
#include "util/log.hpp"

using namespace lsl;

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: lsl_recv PORT [-g SEED] [-1] [--metrics-out FILE] "
                 "[--log-level LEVEL]\n");
    return 2;
  }
  const long port = std::strtol(argv[1], nullptr, 10);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "lsl_recv: bad port\n");
    return 2;
  }
  bool once = false;
  bool check_content = false;
  std::uint64_t seed = 1;
  std::string metrics_file;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "-1") == 0) {
      once = true;
    } else if (std::strcmp(argv[i], "-g") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      check_content = true;
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_file = argv[++i];
    } else if (std::strcmp(argv[i], "--log-level") == 0 && i + 1 < argc) {
      const auto lvl = util::parse_log_level(argv[++i]);
      if (!lvl) {
        std::fprintf(stderr, "lsl_recv: bad log level %s\n", argv[i]);
        return 2;
      }
      util::set_log_level(*lvl);
    } else {
      std::fprintf(stderr, "lsl_recv: unknown argument %s\n", argv[i]);
      return 2;
    }
  }

  // Receive-side metrics (only populated with --metrics-out).
  metrics::Registry registry;
  std::unique_ptr<metrics::LoopMetrics> loop_metrics;
  metrics::Counter* m_sessions_ok = nullptr;
  metrics::Counter* m_sessions_bad = nullptr;
  metrics::Counter* m_bytes = nullptr;
  metrics::Histogram* m_session_ms = nullptr;
  if (!metrics_file.empty()) {
    loop_metrics = std::make_unique<metrics::LoopMetrics>(registry, "loop.recv");
    m_sessions_ok = &registry.counter("recv.sessions_ok");
    m_sessions_bad = &registry.counter("recv.sessions_mismatch");
    m_bytes = &registry.counter("recv.payload_bytes");
    m_session_ms =
        &registry.histogram("recv.session_ms", metrics::latency_ms_bounds());
  }

  engine::EpollEngine loop;
  if (loop_metrics) loop.set_metrics(loop_metrics.get());
  posix::PosixSinkServer sink(
      loop,
      posix::InetAddress{0 /* INADDR_ANY */,
                         static_cast<std::uint16_t>(port)},
      /*expect_header=*/true, seed, check_content);
  std::fprintf(stderr, "lsl_recv: listening on port %u\n", sink.port());

  bool stop = false;
  sink.on_complete = [&](const posix::SinkResult& r) {
    std::printf("session %s: %llu bytes in %.3f s (%.2f Mbit/s), digest %s\n",
                r.header ? r.header->session.hex().c_str() : "?",
                static_cast<unsigned long long>(r.payload_bytes), r.seconds,
                r.seconds > 0
                    ? static_cast<double>(r.payload_bytes) * 8 / 1e6 /
                          r.seconds
                    : 0.0,
                r.verified ? "OK" : "MISMATCH");
    std::fflush(stdout);
    if (m_bytes) {
      (r.verified ? m_sessions_ok : m_sessions_bad)->inc();
      m_bytes->inc(r.payload_bytes);
      m_session_ms->observe(r.seconds * 1e3);
    }
    if (once) stop = true;
  };

  while (!stop) {
    if (loop.run_once(500) < 0) break;
  }
  if (!metrics_file.empty() &&
      !metrics::write_file(registry, metrics_file)) {
    std::fprintf(stderr, "lsl_recv: cannot write %s\n", metrics_file.c_str());
    return 1;
  }
  return 0;
}
