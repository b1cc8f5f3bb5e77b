// lsl_send — command-line LSL session sender (real sockets).
//
// Streams a file (or a generated test payload) to an lsl_recv sink, either
// directly or cascaded through one or more lsd depots, with the MD5 stream
// digest appended so the receiver verifies integrity end to end. Each
// attempt is one posix::PosixSource (striped: one StripedPosixSource) run on
// an event loop until the sink's verdict; the source core frames the header,
// the payload and the trailer.
//
//   lsl_send [-v HOP]... DEST_IP:PORT (-f FILE | -n BYTES [-s SEED])
//
//   -v HOP    add a depot hop (ip:port); repeatable, applied in order
//   -f FILE   send the contents of FILE
//   -n BYTES  send BYTES of deterministic generated payload
//   -s SEED   generator seed (default 1; lsl_recv -g must match to verify
//             content, the MD5 trailer verifies regardless)
//   --metrics-out FILE  dump send-side metrics (verified payload bytes) on
//                       exit; .csv -> CSV, anything else -> JSONL
//   --retry N     re-attempt a failed transfer up to N times (fresh session
//                 each time) under exponential backoff with seeded jitter
//   --backoff DUR base retry delay, fault-spec duration syntax (e.g. 200ms,
//                 1s); default 200ms, doubling per attempt, capped at 5s
//   --stripes N   stripe the session over N lanes (2..16, wire version 3):
//                 the first N -v hops become one single-depot chain per
//                 lane (missing hops leave lanes direct), extra hops are
//                 spare chains consumed when a lane dies mid-transfer.
//                 Requires -n (the striped source maps generated content
//                 onto lanes). A lost lane is re-striped within the
//                 session; --retry retries the whole session only when
//                 that recovery fails.
//   --stripe-chunk BYTES   round-robin cell size (default 65536)
//   --redundancy N         extra carriers per logical stripe (default 0;
//                          lanes then overlap, and a dead lane needs no
//                          re-striping at all)
//   --log-level LEVEL   debug|info|warn|error|off (default warn)
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "engine/epoll_engine.hpp"
#include "fault/policy.hpp"
#include "fault/spec.hpp"
#include "lsl/session_id.hpp"
#include "metrics/export.hpp"
#include "metrics/metrics.hpp"
#include "posix/client.hpp"
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

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

/// Thrown by the -f filler when the file no longer holds the bytes its
/// size promised. It unwinds out of the event loop at once, so the source
/// is dropped before it frames another byte: a trailer over filler bytes
/// would let the sink verify a stream the file never held.
struct ShortRead {};

/// Start `src` and run `loop` until the source reports the sink's verdict.
template <typename Source>
bool run(engine::EpollEngine& loop, Source& src) {
  bool done = false;
  bool ok = false;
  src.on_done = [&](bool verdict) {
    done = true;
    ok = verdict;
  };
  src.start();
  while (!done) loop.run_once(-1);
  return ok;
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

  if (stripes >= 2 && !file.empty()) {
    std::fprintf(stderr, "lsl_send: --stripes requires -n, not -f\n");
    return 2;
  }
  if (stripes >= 2 && redundancy >= stripes) {
    std::fprintf(stderr, "lsl_send: --redundancy must be < --stripes\n");
    return 2;
  }

  // Determine payload length up front (the header carries it).
  std::unique_ptr<std::FILE, FileCloser> in;
  std::uint64_t length = gen_bytes;
  if (!file.empty()) {
    in.reset(std::fopen(file.c_str(), "rb"));
    struct stat st {};
    if (!in || ::fstat(::fileno(in.get()), &st) != 0) {
      std::fprintf(stderr, "lsl_send: cannot open %s\n", file.c_str());
      return 1;
    }
    length = static_cast<std::uint64_t>(st.st_size);
  }

  // Session ids draw from one stream: each retry gets a fresh, distinct
  // session, and a fixed seed reproduces the whole sequence.
  util::Rng session_rng(seed ^ 0x1234567);

  // One attempt: a fresh session, run until the sink's verdict.
  const auto attempt = [&]() -> bool {
    engine::EpollEngine loop;
    const core::SessionId session = core::SessionId::generate(session_rng);
    if (stripes >= 2) {
      // The first `stripes` hops become one single-depot chain per lane
      // (missing hops leave lanes direct), the rest are spare chains.
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
      cfg.session = session;
      posix::StripedPosixSource src(loop, std::move(cfg));
      std::fprintf(stderr,
                   "lsl_send: striping %llu bytes over %lu lanes "
                   "(chunk %lu, redundancy %lu, %zu spare chain(s))\n",
                   static_cast<unsigned long long>(length), stripes,
                   stripe_chunk, redundancy,
                   hops.size() > stripes ? hops.size() - stripes : 0);
      const bool ok = run(loop, src);
      std::fprintf(
          stderr,
          "lsl_send: %s; %u stripe(s) lost, %u recovered, "
          "%llu bytes retransmitted\n",
          ok ? "delivered and verified" : "delivery FAILED",
          src.stripes_lost(), src.stripes_recovered(),
          static_cast<unsigned long long>(src.retransmitted_bytes()));
      return ok;
    }
    posix::PosixSourceConfig cfg;
    cfg.route = hops;
    cfg.destination = dest;
    cfg.payload_bytes = length;
    cfg.payload_seed = seed;
    cfg.session = session;
    if (in) {
      cfg.payload_fill = [fd = ::fileno(in.get())](
                             std::uint64_t offset,
                             std::span<std::uint8_t> out) {
        std::size_t got = 0;
        while (got < out.size()) {
          const ssize_t n = ::pread(fd, out.data() + got, out.size() - got,
                                    static_cast<off_t>(offset + got));
          if (n > 0) {
            got += static_cast<std::size_t>(n);
          } else if (n == 0 || errno != EINTR) {
            throw ShortRead{};
          }
        }
      };
    }
    posix::PosixSource src(loop, std::move(cfg));
    std::fprintf(stderr,
                 "lsl_send: session %s, %llu bytes via %zu depot(s)\n",
                 session.hex().c_str(),
                 static_cast<unsigned long long>(length), hops.size());
    const bool ok = run(loop, src);
    std::fprintf(stderr, "lsl_send: %s\n",
                 ok ? "delivered and verified" : "delivery FAILED");
    return ok;
  };

  // Retry loop (--retry): each failure is a loss the policy answers with a
  // move back onto the one route given: a fresh session after a backoff.
  fault::RoutePolicy policy(retry_cfg, seed,
                            {core::CandidateRoute{{"src", "dst"}}});
  bool ok = false;
  try {
    ok = attempt();
    while (!ok) {
      const fault::Verdict v = policy.lost();
      // Budget exhausted (or --retry was never given).
      if (v.kind == fault::Verdict::Kind::kGiveUp) break;
      std::fprintf(stderr, "lsl_send: retry %u/%u in %lld ms\n",
                   policy.attempts(), retry_cfg.max_attempts,
                   static_cast<long long>(v.delay / util::kMillisecond));
      std::this_thread::sleep_for(std::chrono::nanoseconds(v.delay));
      ok = attempt();
    }
  } catch (const ShortRead&) {
    std::fprintf(stderr, "lsl_send: short read from %s\n", file.c_str());
  }

  if (!metrics_file.empty()) {
    // Payload bytes of the verified delivery; failed attempts count none.
    metrics::Registry registry;
    registry.counter("send.bytes_sent").inc(ok ? length : 0);
    if (!metrics::write_file(registry, metrics_file)) {
      std::fprintf(stderr, "lsl_send: cannot write %s\n",
                   metrics_file.c_str());
    }
  }
  return ok ? 0 : 1;
}
