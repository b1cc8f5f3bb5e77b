// lsl_send — command-line LSL session sender (real sockets).
//
// Streams a file (or a generated test payload) to an lsl_recv sink, either
// directly or cascaded through one or more lsd depots, with the MD5 stream
// digest appended so the receiver verifies integrity end to end.
//
//   lsl_send [-v HOP]... DEST_IP:PORT (-f FILE | -n BYTES [-s SEED])
//
//   -v HOP    add a depot hop (ip:port); repeatable, applied in order
//   -f FILE   send the contents of FILE
//   -n BYTES  send BYTES of deterministic generated payload
//   -s SEED   generator seed (default 1; lsl_recv -s must match to verify
//             content, the MD5 trailer verifies regardless)
//   --metrics-out FILE  dump send-side metrics (bytes, write-call latency)
//                       on exit; .csv -> CSV, anything else -> JSONL
//   --retry N     re-attempt a failed transfer up to N times (fresh session
//                 each time) under exponential backoff with seeded jitter
//   --backoff DUR base retry delay, fault-spec duration syntax (e.g. 200ms,
//                 1s); default 200ms, doubling per attempt, capped at 5s
//   --stripes N   stripe the session over N lanes (2..16, wire version 3):
//                 the first N -v hops become one single-depot chain per
//                 lane (missing hops leave lanes direct), extra hops are
//                 spare chains consumed when a lane dies mid-transfer.
//                 Requires -n (the striped source maps generated content
//                 onto lanes); --retry does not apply (recovery is
//                 per-lane re-striping, not whole-session retries).
//   --stripe-chunk BYTES   round-robin cell size (default 65536)
//   --redundancy N         extra carriers per logical stripe (default 0;
//                          lanes then overlap, and a dead lane needs no
//                          re-striping at all)
//   --log-level LEVEL   debug|info|warn|error|off (default warn)
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include <chrono>
#include <thread>

#include "engine/epoll_engine.hpp"
#include "fault/policy.hpp"
#include "fault/spec.hpp"
#include "lsl/payload.hpp"
#include "lsl/session_id.hpp"
#include "lsl/wire.hpp"
#include "md5/md5.hpp"
#include "metrics/export.hpp"
#include "metrics/instruments.hpp"
#include "metrics/metrics.hpp"
#include "posix/socket_util.hpp"
#include "posix/striped_client.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

#include "cli_args.hpp"

using namespace lsl;

namespace {

bool parse_endpoint(const std::string& s, posix::InetAddress* out) {
  const auto colon = s.rfind(':');
  if (colon == std::string::npos) return false;
  const auto ip = posix::parse_ipv4(s.substr(0, colon));
  if (!ip) return false;
  const auto port = util::parse_count(std::string_view(s).substr(colon + 1));
  if (!port || *port == 0 || *port > 65535) return false;
  *out = {*ip, static_cast<std::uint16_t>(*port)};
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: lsl_send [-v HOP_IP:PORT]... DEST_IP:PORT "
               "(-f FILE | -n BYTES [-s SEED]) "
               "[--metrics-out FILE] [--retry N] [--backoff DUR] "
               "[--stripes N [--stripe-chunk BYTES] [--redundancy N]] "
               "[--log-level LEVEL]\n");
  return 2;
}

/// Blocking full write (the CLI has nothing else to do).
bool write_all(int fd, const std::uint8_t* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);

  std::vector<posix::InetAddress> hops;
  posix::InetAddress dest{};
  bool have_dest = false;
  std::string file;
  std::string metrics_file;
  std::uint64_t gen_bytes = 0;
  std::uint64_t seed = 1;
  fault::RetryConfig retry_cfg;
  retry_cfg.max_attempts = 0;  // no retries unless asked
  retry_cfg.base_delay = 200 * util::kMillisecond;
  unsigned long stripes = 0;
  unsigned long stripe_chunk = 64 * 1024;
  unsigned long redundancy = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    if (arg == "-v") {
      const char* v = next();
      posix::InetAddress hop{};
      if (v == nullptr || !parse_endpoint(v, &hop)) return usage();
      hops.push_back(hop);
    } else if (arg == "-f") {
      const char* v = next();
      if (v == nullptr) return usage();
      file = v;
    } else if (arg == "-n") {
      const char* v = next();
      if (v == nullptr) return usage();
      if (!cli::read_count("lsl_send", "-n", v, &gen_bytes, 1)) return 2;
    } else if (arg == "-s") {
      const char* v = next();
      if (v == nullptr) return usage();
      if (!cli::read_count("lsl_send", "-s", v, &seed)) return 2;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (v == nullptr) return usage();
      metrics_file = v;
    } else if (arg == "--retry") {
      const char* v = next();
      if (v == nullptr) return usage();
      if (!cli::read_count("lsl_send", "--retry", v,
                           &retry_cfg.max_attempts)) {
        return 2;
      }
    } else if (arg == "--backoff") {
      const char* v = next();
      if (v == nullptr) return usage();
      const auto d = fault::parse_duration(v);
      if (!d || *d <= 0) return usage();
      retry_cfg.base_delay = *d;
    } else if (arg == "--stripes") {
      const char* v = next();
      if (v == nullptr) return usage();
      if (!cli::read_count("lsl_send", "--stripes", v, &stripes, 2, 16)) {
        return 2;
      }
    } else if (arg == "--stripe-chunk") {
      const char* v = next();
      if (v == nullptr) return usage();
      if (!cli::read_count("lsl_send", "--stripe-chunk", v, &stripe_chunk, 1,
                           std::numeric_limits<std::uint32_t>::max())) {
        return 2;
      }
    } else if (arg == "--redundancy") {
      const char* v = next();
      if (v == nullptr) return usage();
      if (!cli::read_count("lsl_send", "--redundancy", v, &redundancy, 0,
                           16)) {
        return 2;
      }
    } else if (arg == "--log-level") {
      const char* v = next();
      if (v == nullptr) return usage();
      const auto lvl = util::parse_log_level(v);
      if (!lvl) return usage();
      util::set_log_level(*lvl);
    } else if (!have_dest) {
      if (!parse_endpoint(arg, &dest)) return usage();
      have_dest = true;
    } else {
      return usage();
    }
  }
  if (!have_dest || (file.empty() && gen_bytes == 0)) {
    return usage();
  }

  // Determine payload length up front (the header carries it).
  std::ifstream in;
  std::uint64_t length = gen_bytes;
  if (!file.empty()) {
    in.open(file, std::ios::binary | std::ios::ate);
    if (!in) {
      std::fprintf(stderr, "lsl_send: cannot open %s\n", file.c_str());
      return 1;
    }
    length = static_cast<std::uint64_t>(in.tellg());
    in.seekg(0);
  }

  // Send-side metrics (only populated with --metrics-out).
  metrics::Registry registry;
  metrics::Counter* m_bytes = nullptr;
  metrics::Histogram* m_write_ms = nullptr;
  if (!metrics_file.empty()) {
    m_bytes = &registry.counter("send.bytes_sent");
    m_write_ms =
        &registry.histogram("send.write_ms", metrics::fine_ms_bounds());
  }
  auto timed_write = [&](int fd, const std::uint8_t* p, std::size_t len) {
    if (!m_bytes) return write_all(fd, p, len);
    const auto t0 = std::chrono::steady_clock::now();
    const bool ok = write_all(fd, p, len);
    m_write_ms->observe(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
    if (ok) m_bytes->inc(len);
    return ok;
  };
  auto dump_metrics = [&] {
    if (metrics_file.empty()) return;
    if (!metrics::write_file(registry, metrics_file)) {
      std::fprintf(stderr, "lsl_send: cannot write %s\n",
                   metrics_file.c_str());
    }
  };

  // Session ids draw from one stream: each retry gets a fresh, distinct
  // session, and a fixed seed reproduces the whole sequence.
  util::Rng session_rng(seed ^ 0x1234567);

  // Striped mode: one wire-v3 session over N lanes via StripedPosixSource
  // (nonblocking, so lane recovery can overlap the surviving lanes).
  if (stripes >= 2) {
    if (!file.empty()) {
      std::fprintf(stderr, "lsl_send: --stripes requires -n, not -f\n");
      return 2;
    }
    if (redundancy >= stripes) {
      std::fprintf(stderr, "lsl_send: --redundancy must be < --stripes\n");
      return 2;
    }
    posix::StripedPosixSourceConfig cfg;
    for (unsigned long j = 0; j < stripes; ++j) {
      std::vector<posix::InetAddress> route;
      if (j < hops.size()) route.push_back(hops[j]);
      cfg.lane_routes.push_back(std::move(route));
    }
    for (std::size_t j = stripes; j < hops.size(); ++j) {
      cfg.spare_routes.push_back({hops[j]});
    }
    cfg.destination = dest;
    cfg.payload_bytes = length;
    cfg.payload_seed = seed;
    cfg.chunk = static_cast<std::uint32_t>(stripe_chunk);
    cfg.redundancy = static_cast<std::uint8_t>(redundancy);
    cfg.session = core::SessionId::generate(session_rng);
    engine::EpollEngine loop;
    posix::StripedPosixSource src(loop, std::move(cfg));
    std::fprintf(stderr,
                 "lsl_send: striping %llu bytes over %lu lanes "
                 "(chunk %lu, redundancy %lu, %zu spare chain(s))\n",
                 static_cast<unsigned long long>(length), stripes,
                 stripe_chunk, redundancy,
                 hops.size() > stripes ? hops.size() - stripes : 0);
    bool done = false;
    bool ok = false;
    src.on_done = [&](bool o) {
      done = true;
      ok = o;
    };
    src.start();
    while (!done) {
      if (loop.run_once(500) < 0) break;
    }
    std::fprintf(stderr,
                 "lsl_send: %s; %u stripe(s) lost, %u recovered, "
                 "%llu bytes retransmitted\n",
                 ok ? "delivered and verified" : "delivery FAILED",
                 src.stripes_lost(), src.stripes_recovered(),
                 static_cast<unsigned long long>(src.retransmitted_bytes()));
    if (ok && m_bytes != nullptr) m_bytes->inc(length);
    dump_metrics();
    return ok ? 0 : 1;
  }

  // One complete transfer attempt: connect, stream, await the status byte.
  const auto attempt = [&]() -> int {
    // Connect (blocking via a tiny epoll wait for writability).
    const posix::InetAddress first = hops.empty() ? dest : hops[0];
    engine::Fd sock = posix::connect_tcp(first);
    if (!sock.valid()) {
      std::perror("lsl_send: connect");
      return 1;
    }
    {
      engine::EpollEngine loop;
      bool ready = false;
      loop.add(sock.get(), EPOLLOUT, [&](std::uint32_t) { ready = true; });
      while (!ready) {
        if (loop.run_once(5000) == 0) break;
      }
      if (const int err = posix::connect_result(sock.get()); err != 0) {
        std::fprintf(stderr, "lsl_send: connect: %s\n", std::strerror(err));
        return 1;
      }
    }
    // Blocking I/O from here on.
    const int flags = ::fcntl(sock.get(), F_GETFL, 0);
    ::fcntl(sock.get(), F_SETFL, flags & ~O_NONBLOCK);

    // Header.
    core::SessionHeader h;
    h.session = core::SessionId::generate(session_rng);
    h.flags = core::kFlagDigestTrailer;
    h.payload_length = length;
    for (std::size_t i = 1; i < hops.size(); ++i) {
      h.hops.push_back({hops[i].addr, hops[i].port});
    }
    h.destination = {dest.addr, dest.port};
    std::vector<std::uint8_t> buf;
    core::encode_header(h, buf);
    if (!timed_write(sock.get(), buf.data(), buf.size())) {
      std::perror("lsl_send: write header");
      return 1;
    }
    std::fprintf(stderr,
                 "lsl_send: session %s, %llu bytes via %zu depot(s)\n",
                 h.session.hex().c_str(),
                 static_cast<unsigned long long>(length), hops.size());

    // Payload + digest.
    if (in.is_open()) {
      in.clear();
      in.seekg(0);
    }
    md5::Md5 hash;
    core::PayloadGenerator gen(seed);
    std::vector<std::uint8_t> chunk(256 * 1024);
    std::uint64_t left = length;
    while (left > 0) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(left, chunk.size()));
      if (in.is_open()) {
        in.read(reinterpret_cast<char*>(chunk.data()),
                static_cast<std::streamsize>(n));
        if (static_cast<std::size_t>(in.gcount()) != n) {
          std::fprintf(stderr, "lsl_send: short read from %s\n",
                       file.c_str());
          return 1;
        }
      } else {
        gen.generate(std::span<std::uint8_t>(chunk.data(), n));
      }
      hash.update(std::span<const std::uint8_t>(chunk.data(), n));
      if (!timed_write(sock.get(), chunk.data(), n)) {
        std::perror("lsl_send: write payload");
        return 1;
      }
      left -= n;
    }
    const md5::Digest d = hash.finalize();
    if (!timed_write(sock.get(), d.bytes.data(), d.bytes.size())) {
      std::perror("lsl_send: write digest");
      return 1;
    }
    ::shutdown(sock.get(), SHUT_WR);

    // Await the end-to-end status byte.
    std::uint8_t status = 0;
    ssize_t n;
    while ((n = ::read(sock.get(), &status, 1)) < 0 && errno == EINTR) {
    }
    if (n == 1 && status == core::kStatusOk) {
      std::fprintf(stderr, "lsl_send: delivered and verified (md5 %s)\n",
                   d.hex().c_str());
      return 0;
    }
    std::fprintf(stderr, "lsl_send: delivery FAILED (status=%d)\n",
                 n == 1 ? status : -1);
    return 1;
  };

  // Retry loop (--retry): each failure costs one policy-granted backoff
  // delay; a fresh session retransfers from scratch.
  fault::RetryPolicy policy(retry_cfg, seed);
  int rc = attempt();
  while (rc != 0) {
    const auto delay = policy.next_delay();
    if (!delay) break;  // budget exhausted (or --retry was never given)
    std::fprintf(
        stderr, "lsl_send: retry %u/%u in %lld ms\n", policy.attempts_made(),
        retry_cfg.max_attempts,
        static_cast<long long>(*delay / util::kMillisecond));
    std::this_thread::sleep_for(std::chrono::nanoseconds(*delay));
    rc = attempt();
  }
  dump_metrics();
  return rc;
}
