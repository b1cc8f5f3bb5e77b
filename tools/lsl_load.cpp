// lsl_load — capacity harness for the lsd daemon's pooled-memory data path.
//
// Runs N concurrent LSL sessions through ONE daemon instance in a single
// process (sources, daemon, and verifying sink share an epoll loop, like
// the posix test tier), and reports what the pool did under load:
// aggregate throughput, session completion rate, peak RSS, and the
// `pool.*` counters from docs/OBSERVABILITY.md. Exit status is nonzero if
// any session fails verification or the pool's peak exceeds its budget —
// which makes this binary the assertion behind scripts/bench_smoke.sh.
//
//   lsl_load [--sessions=N] [--bytes=SIZE] [--budget=SIZE] [--chunk=SIZE]
//            [--buffer=SIZE] [--no-splice] [--seed=S] [--json=FILE]
//            [--metrics-out=FILE] [--log-level=LEVEL]
//            [--trace] [--spans-out=FILE] [--cores=N] [--stripes=N]
//            [--depots=N] [--churn-spec=SPEC] [--health]
//
// SIZE accepts k/m/g suffixes (binary units): --bytes=4m, --budget=64m.
// --cores=N (alias --shards=N) with N >= 2 switches the daemon under test
// to the sharded runtime (posix::ShardedLsd, N SO_REUSEPORT shards on one
// port, one shared budget) and splits the client across N driver threads,
// each with its own event loop and verifying sink. --cores=1 (the
// default) runs the classic single-threaded daemon on the shared loop —
// that path is untouched, so its metric exports stay byte-identical.
// --trace mints one trace id per session slot (deterministic from --seed)
// so every session's lifecycle lands in the daemon's flight recorder;
// --spans-out dumps the recorder as JSONL on exit (implies --trace) for
// tools/lsl_spans. The summary always reports session-latency percentiles
// (p50/p90/p99) from a fixed-bucket histogram of per-session wall times.
// Sessions refused by pool-pressure admission control are retried with
// backoff (the client half of the hop-by-hop backpressure contract), so a
// run under memory pressure completes late rather than failing.
// --stripes=N with N >= 2 turns every session into a striped (wire v3)
// transfer: N lanes per session, each relayed by the daemon as its own
// connection, merged by the sink's reassembler. All lanes of a slot share
// one session id, so a failed attempt relaunches under a fresh id to keep
// sink groups distinct. Striping composes with the classic single-loop
// path only (the sharded split would scatter a session's lanes across
// per-thread sinks), so --stripes requires --cores=1.
//
// --depots=N runs N independent daemon instances and spreads sessions
// across them (classic path only); --churn-spec=SPEC arms a fault plan
// (docs/FAULTS.md grammar) against one depot chosen from --seed mid-run —
// the churn acceptance scenario from docs/HEALTH.md. --health attaches a
// client-side depot HealthBoard: each attempt routes to the best-scoring
// admissible depot and completions/failures feed its scores, so churned
// depots shed load instead of burning every slot's retry budget. With
// --cores>1, --churn-spec applies the plan to every shard of the one
// sharded daemon; --depots/--health require --cores=1.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <csignal>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "buf/pool.hpp"
#include "engine/epoll_engine.hpp"
#include "fault/spec.hpp"
#include "health/board.hpp"
#include "lsl/session_id.hpp"
#include "metrics/export.hpp"
#include "metrics/instruments.hpp"
#include "metrics/metrics.hpp"
#include "posix/client.hpp"
#include "posix/fault_driver.hpp"
#include "posix/lsd.hpp"
#include "posix/sharded_lsd.hpp"
#include "posix/socket_util.hpp"
#include "posix/striped_client.hpp"
#include "span/span.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

using namespace lsl;

namespace {

struct Options {
  std::size_t sessions = 16;
  std::uint64_t bytes = 4 * util::kMiB;
  std::uint64_t budget = 64 * util::kMiB;
  std::size_t chunk = 64 * util::kKiB;
  std::size_t buffer = 1 * util::kMiB;
  bool splice = true;
  std::uint64_t seed = 1;
  double timeout_s = 300.0;
  std::string json_file;
  std::string metrics_file;
  bool trace = false;
  std::string spans_file;
  int cores = 1;
  int stripes = 1;
  int depots = 1;
  std::string churn_spec;
  bool health = false;
};

bool parse_size(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || v < 0) return false;
  std::uint64_t mult = 1;
  if (*end == 'k' || *end == 'K') {
    mult = util::kKiB;
  } else if (*end == 'm' || *end == 'M') {
    mult = util::kMiB;
  } else if (*end == 'g' || *end == 'G') {
    mult = util::kGiB;
  } else if (*end != '\0') {
    return false;
  }
  *out = static_cast<std::uint64_t>(v * static_cast<double>(mult));
  return true;
}

/// Split "--name=value" / "--name value" argument forms.
const char* arg_value(const char* name, int argc, char** argv, int* i) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(argv[*i], name, n) != 0) return nullptr;
  if (argv[*i][n] == '=') return argv[*i] + n + 1;
  if (argv[*i][n] == '\0' && *i + 1 < argc) return argv[++*i];
  return nullptr;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: lsl_load [--sessions=N] [--bytes=SIZE] [--budget=SIZE]\n"
      "                [--chunk=SIZE] [--buffer=SIZE] [--no-splice]\n"
      "                [--seed=S] [--timeout=SECONDS] [--json=FILE]\n"
      "                [--metrics-out=FILE] [--log-level=LEVEL]\n"
      "                [--trace] [--spans-out=FILE] [--cores=N]\n"
      "                [--stripes=N] [--depots=N] [--churn-spec=SPEC]\n"
      "                [--health]\n");
}

/// Monotonic milliseconds for client-side HealthBoard timestamps.
std::uint64_t steady_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Peak resident set of this process, in bytes (Linux ru_maxrss is KiB).
std::uint64_t peak_rss_bytes() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

/// One logical session slot: retried with backoff until its stream
/// verifies (admission refusals surface as failed attempts).
struct Slot {
  std::unique_ptr<posix::PosixSource> source;
  std::unique_ptr<posix::StripedPosixSource> striped;
  std::string depot;  ///< depot name this attempt routed through (--health)
  std::uint32_t attempts = 0;
  bool completed = false;
  std::chrono::steady_clock::time_point next_attempt{};
  bool relaunch_due = false;
  /// --health only: the slot's stable session id — the sink's adoption
  /// ledger stitches every attempt and migration of this transfer under it.
  core::SessionId session{};
  /// The source's chain died mid-stream: the driver should re-route it
  /// from the sink's frontier instead of letting it wait out the outage.
  bool migrate_due = false;
  std::uint32_t reroutes = 0;  ///< mid-transfer re-selections performed
};

/// What one driver thread contributes to the run totals.
struct DriverResult {
  std::size_t verified = 0;
  std::size_t mismatched = 0;
  std::uint64_t payload = 0;
  bool gave_up = false;
};

/// One driver thread's whole world: a private event loop, a private
/// verifying sink, and `count` session slots (global indices starting at
/// `slot_offset`, so trace ids stay deterministic across the split).
/// Retry/backoff semantics are identical to the classic single-loop path.
DriverResult drive_slots(std::uint16_t daemon_port, const Options& opt,
                         std::size_t count, std::size_t slot_offset,
                         std::chrono::steady_clock::time_point t0,
                         metrics::Histogram* session_ms) {
  DriverResult res;
  if (count == 0) return res;
  engine::EpollEngine loop;
  posix::PosixSinkServer sink(loop, posix::InetAddress::loopback(0),
                              /*expect_header=*/true,
                              static_cast<std::uint32_t>(opt.seed));
  sink.on_complete = [&](const posix::SinkResult& r) {
    if (r.verified) {
      ++res.verified;
      res.payload += r.payload_bytes;
      session_ms->observe(r.seconds * 1000.0);  // atomic: safe cross-thread
    } else {
      ++res.mismatched;
    }
  };

  posix::PosixSourceConfig scfg;
  scfg.route = {posix::InetAddress::loopback(daemon_port)};
  scfg.destination = posix::InetAddress::loopback(sink.port());
  scfg.payload_bytes = opt.bytes;
  scfg.payload_seed = static_cast<std::uint32_t>(opt.seed);

  std::vector<Slot> slots(count);
  constexpr std::uint32_t kMaxAttempts = 25;
  auto launch = [&](Slot& s) {
    ++s.attempts;
    s.relaunch_due = false;
    posix::PosixSourceConfig cfg = scfg;
    if (opt.trace) {
      const std::size_t idx =
          slot_offset + static_cast<std::size_t>(&s - slots.data());
      cfg.trace_id = span::mint_trace_id(opt.seed * 100003 + idx);
    }
    s.source = std::make_unique<posix::PosixSource>(loop, cfg);
    Slot* sp = &s;
    s.source->on_done = [&, sp](bool ok) {
      if (ok) {
        sp->completed = true;
        return;
      }
      sp->relaunch_due = true;
      sp->next_attempt = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(20 * sp->attempts);
    };
    s.source->start();
  };

  for (auto& s : slots) launch(s);
  const auto deadline = t0 + std::chrono::duration<double>(opt.timeout_s);
  while (res.verified + res.mismatched < count) {
    const auto now = std::chrono::steady_clock::now();
    if (now > deadline) {
      res.gave_up = true;
      break;
    }
    for (auto& s : slots) {
      if (s.relaunch_due && now >= s.next_attempt) {
        if (s.attempts >= kMaxAttempts) {
          ++res.mismatched;
          s.relaunch_due = false;
        } else {
          launch(s);
        }
      }
    }
    loop.run_once(20);
  }
  return res;
}

/// The sharded leg: N SO_REUSEPORT daemon shards (posix::ShardedLsd, one
/// shared budget) driven by N client threads. Reports the same summary
/// and JSON shape as the classic path plus "cores"/"shards" fields; the
/// budget assertion checks the *shared* budget's peak, which is the real
/// process-wide ceiling (per-shard local peaks need not coincide).
int run_sharded(const Options& opt) {
  metrics::Registry registry;
  metrics::Histogram& session_ms =
      registry.histogram("load.session_ms", metrics::latency_ms_bounds());

  posix::ShardedLsdConfig dcfg;
  dcfg.base.buffer_bytes = opt.buffer;
  dcfg.base.use_splice = opt.splice;
  dcfg.base.pool.chunk_bytes = opt.chunk;
  dcfg.base.pool.budget_bytes = opt.budget;
  dcfg.shards = opt.cores;
  dcfg.registry = &registry;
  if (!opt.churn_spec.empty()) {
    std::string err;
    const auto plan = fault::parse_fault_spec(opt.churn_spec, &err);
    if (!plan) {
      std::fprintf(stderr, "lsl_load: bad --churn-spec: %s\n", err.c_str());
      return 2;
    }
    dcfg.fault_plan = *plan;
  }
  // Declared before the daemon: shard teardown flushes open stream
  // windows through the tracer, so it must outlive the ShardedLsd.
  std::unique_ptr<span::Tracer> tracer;
  if (opt.trace) {
    tracer = std::make_unique<span::Tracer>("lsd.sharded", 64 * 1024);
  }
  dcfg.tracer = tracer.get();
  posix::ShardedLsd daemon(dcfg);

  // Split the slots round-robin-ish: first (sessions % cores) drivers take
  // one extra so every session has exactly one owner.
  const std::size_t cores = static_cast<std::size_t>(opt.cores);
  const std::size_t base = opt.sessions / cores;
  const std::size_t extra = opt.sessions % cores;
  std::vector<DriverResult> results(cores);
  std::vector<std::thread> drivers;
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t offset = 0;
  for (std::size_t d = 0; d < cores; ++d) {
    const std::size_t count = base + (d < extra ? 1 : 0);
    const std::size_t my_offset = offset;
    offset += count;
    drivers.emplace_back([&, d, count, my_offset] {
      results[d] = drive_slots(daemon.port(), opt, count, my_offset, t0,
                               &session_ms);
    });
  }
  for (auto& t : drivers) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::size_t verified = 0;
  std::size_t mismatched = 0;
  std::uint64_t payload_total = 0;
  bool gave_up = false;
  for (const DriverResult& r : results) {
    verified += r.verified;
    mismatched += r.mismatched;
    payload_total += r.payload;
    gave_up = gave_up || r.gave_up;
  }

  const buf::PoolStats pool = daemon.pool_stats();
  const std::uint64_t budget_peak = daemon.budget().peak();
  const posix::LsdStats st = daemon.stats();
  const std::uint64_t rss = peak_rss_bytes();
  const double reuse_rate =
      pool.allocs > 0
          ? static_cast<double>(pool.reuses) / static_cast<double>(pool.allocs)
          : 0.0;
  const double mbps =
      elapsed > 0 ? static_cast<double>(payload_total) * 8 / 1e6 / elapsed
                  : 0.0;
  const double sessions_per_s =
      elapsed > 0 ? static_cast<double>(verified) / elapsed : 0.0;

  std::printf(
      "lsl_load: %zu/%zu sessions verified in %.3f s "
      "(%.2f Mbit/s aggregate, %.2f sessions/s, %d shards)\n",
      verified, opt.sessions, elapsed, mbps, sessions_per_s, opt.cores);
  std::printf(
      "  pool: shared peak %llu / budget %llu bytes, %llu allocs "
      "(%.1f%% reuse), %llu refusals, %llu pressure episodes\n",
      static_cast<unsigned long long>(budget_peak),
      static_cast<unsigned long long>(opt.budget),
      static_cast<unsigned long long>(pool.allocs), reuse_rate * 100,
      static_cast<unsigned long long>(pool.failures),
      static_cast<unsigned long long>(pool.pressure_episodes));
  std::printf(
      "  daemon: %llu relayed (%llu spliced), %llu sessions refused at "
      "admission; peak RSS %llu KiB\n",
      static_cast<unsigned long long>(st.bytes_relayed),
      static_cast<unsigned long long>(st.bytes_spliced),
      static_cast<unsigned long long>(st.sessions_refused),
      static_cast<unsigned long long>(rss / 1024));
  std::printf("  session latency: p50 %.1f ms, p90 %.1f ms, p99 %.1f ms\n",
              session_ms.percentile(0.50), session_ms.percentile(0.90),
              session_ms.percentile(0.99));

  const bool over_budget = opt.budget > 0 && budget_peak > opt.budget;
  const bool ok = !gave_up && mismatched == 0 &&
                  verified == opt.sessions && !over_budget;

  if (!opt.json_file.empty()) {
    std::FILE* f = std::fopen(opt.json_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "lsl_load: cannot write %s\n",
                   opt.json_file.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\"sessions\": %zu, \"verified\": %zu, \"bytes_per_session\": %llu,"
        " \"elapsed_s\": %.6f, \"aggregate_mbps\": %.3f,"
        " \"sessions_per_s\": %.3f, \"splice\": %s,"
        " \"cores\": %d, \"shards\": %d,"
        " \"bytes_relayed\": %llu, \"bytes_spliced\": %llu,"
        " \"pool_budget_bytes\": %llu, \"pool_peak_bytes\": %llu,"
        " \"pool_allocs\": %llu, \"pool_reuse_rate\": %.4f,"
        " \"pool_failures\": %llu, \"pool_pressure_episodes\": %llu,"
        " \"sessions_refused\": %llu, \"peak_rss_bytes\": %llu,"
        " \"latency_p50_ms\": %.3f, \"latency_p90_ms\": %.3f,"
        " \"latency_p99_ms\": %.3f,"
        " \"ok\": %s}\n",
        opt.sessions, verified,
        static_cast<unsigned long long>(opt.bytes), elapsed, mbps,
        sessions_per_s, opt.splice ? "true" : "false", opt.cores, opt.cores,
        static_cast<unsigned long long>(st.bytes_relayed),
        static_cast<unsigned long long>(st.bytes_spliced),
        static_cast<unsigned long long>(opt.budget),
        static_cast<unsigned long long>(budget_peak),
        static_cast<unsigned long long>(pool.allocs), reuse_rate,
        static_cast<unsigned long long>(pool.failures),
        static_cast<unsigned long long>(pool.pressure_episodes),
        static_cast<unsigned long long>(st.sessions_refused),
        static_cast<unsigned long long>(rss), session_ms.percentile(0.50),
        session_ms.percentile(0.90), session_ms.percentile(0.99),
        ok ? "true" : "false");
    std::fclose(f);
  }
  if (!opt.spans_file.empty()) {
    if (!span::dump_file(*tracer, opt.spans_file)) {
      std::fprintf(stderr, "lsl_load: cannot write %s\n",
                   opt.spans_file.c_str());
      return 1;
    }
    std::printf("  spans: %llu recorded (%llu dropped) -> %s\n",
                static_cast<unsigned long long>(tracer->recorder().recorded()),
                static_cast<unsigned long long>(tracer->recorder().dropped()),
                opt.spans_file.c_str());
  }
  if (!opt.metrics_file.empty() &&
      !metrics::write_file(registry, opt.metrics_file)) {
    std::fprintf(stderr, "lsl_load: cannot write %s\n",
                 opt.metrics_file.c_str());
    return 1;
  }
  if (over_budget) {
    std::fprintf(stderr, "lsl_load: FAIL shared budget peak exceeded\n");
  }
  if (gave_up) {
    std::fprintf(stderr, "lsl_load: FAIL timed out with sessions pending\n");
  }
  if (mismatched > 0) {
    std::fprintf(stderr, "lsl_load: FAIL %zu sessions failed verification\n",
                 mismatched);
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::uint64_t size = 0;
    const char* v = nullptr;
    if ((v = arg_value("--sessions", argc, argv, &i)) != nullptr) {
      opt.sessions = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if ((v = arg_value("--bytes", argc, argv, &i)) != nullptr &&
               parse_size(v, &size)) {
      opt.bytes = size;
    } else if ((v = arg_value("--budget", argc, argv, &i)) != nullptr &&
               parse_size(v, &size)) {
      opt.budget = size;
    } else if ((v = arg_value("--chunk", argc, argv, &i)) != nullptr &&
               parse_size(v, &size)) {
      opt.chunk = static_cast<std::size_t>(size);
    } else if ((v = arg_value("--buffer", argc, argv, &i)) != nullptr &&
               parse_size(v, &size)) {
      opt.buffer = static_cast<std::size_t>(size);
    } else if (std::strcmp(argv[i], "--no-splice") == 0) {
      opt.splice = false;
    } else if (std::strcmp(argv[i], "--splice") == 0) {
      opt.splice = true;
    } else if ((v = arg_value("--seed", argc, argv, &i)) != nullptr) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if ((v = arg_value("--timeout", argc, argv, &i)) != nullptr) {
      opt.timeout_s = std::strtod(v, nullptr);
    } else if ((v = arg_value("--json", argc, argv, &i)) != nullptr) {
      opt.json_file = v;
    } else if ((v = arg_value("--metrics-out", argc, argv, &i)) != nullptr) {
      opt.metrics_file = v;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      opt.trace = true;
    } else if ((v = arg_value("--spans-out", argc, argv, &i)) != nullptr) {
      opt.spans_file = v;
      opt.trace = true;
    } else if ((v = arg_value("--cores", argc, argv, &i)) != nullptr ||
               (v = arg_value("--shards", argc, argv, &i)) != nullptr) {
      opt.cores = std::atoi(v);
      if (opt.cores < 1) {
        std::fprintf(stderr, "lsl_load: --cores must be >= 1\n");
        return 2;
      }
    } else if ((v = arg_value("--stripes", argc, argv, &i)) != nullptr) {
      opt.stripes = std::atoi(v);
      if (opt.stripes < 1 || opt.stripes > 16) {
        std::fprintf(stderr, "lsl_load: --stripes must be in 1..16\n");
        return 2;
      }
    } else if ((v = arg_value("--depots", argc, argv, &i)) != nullptr) {
      opt.depots = std::atoi(v);
      if (opt.depots < 1 || opt.depots > 8) {
        std::fprintf(stderr, "lsl_load: --depots must be in 1..8\n");
        return 2;
      }
    } else if ((v = arg_value("--churn-spec", argc, argv, &i)) != nullptr) {
      opt.churn_spec = v;
    } else if (std::strcmp(argv[i], "--health") == 0) {
      opt.health = true;
    } else if ((v = arg_value("--log-level", argc, argv, &i)) != nullptr) {
      const auto lvl = util::parse_log_level(v);
      if (!lvl) {
        std::fprintf(stderr, "lsl_load: bad log level %s\n", v);
        return 2;
      }
      util::set_log_level(*lvl);
    } else {
      std::fprintf(stderr, "lsl_load: bad argument %s\n", argv[i]);
      usage();
      return 2;
    }
  }
  if (opt.sessions == 0 || opt.bytes == 0) {
    usage();
    return 2;
  }
  if (opt.stripes > 1 && opt.cores > 1) {
    std::fprintf(stderr,
                 "lsl_load: --stripes requires --cores=1 (a striped "
                 "session's lanes must share one sink)\n");
    return 2;
  }
  if (opt.cores > 1 && (opt.depots > 1 || opt.health)) {
    std::fprintf(stderr,
                 "lsl_load: --depots/--health require --cores=1 (the "
                 "sharded leg runs one daemon)\n");
    return 2;
  }
  if (opt.stripes > 1 && opt.depots > 1) {
    std::fprintf(stderr,
                 "lsl_load: --stripes requires --depots=1 (lanes already "
                 "spread across the one daemon)\n");
    return 2;
  }
  // --cores=1 stays on the classic single-loop path below, untouched, so
  // its summary and metric exports remain byte-identical run to run.
  if (opt.cores > 1) return run_sharded(opt);

  metrics::Registry registry;
  buf::PoolMetrics pool_metrics(registry);
  metrics::LsdMetrics lsd_metrics(registry, "lsd.load");
  metrics::Histogram& session_ms =
      registry.histogram("load.session_ms", metrics::latency_ms_bounds());

  engine::EpollEngine loop;
  posix::PosixSinkServer sink(loop, posix::InetAddress::loopback(0),
                              /*expect_header=*/true,
                              static_cast<std::uint32_t>(opt.seed));

  posix::LsdConfig dcfg;
  dcfg.buffer_bytes = opt.buffer;
  dcfg.use_splice = opt.splice;
  dcfg.pool.chunk_bytes = opt.chunk;
  dcfg.pool.budget_bytes = opt.budget;
  // Declared before the daemons: teardown flushes open stream windows
  // through the tracer, so it must outlive the Lsd (like the metrics).
  std::unique_ptr<span::Tracer> tracer;
  // Depot 0 is "the daemon" of the historical single-depot path and keeps
  // the metric/tracer hookup, so --depots=1 output stays byte-identical;
  // extra depots are bare instances sessions spread across.
  std::vector<std::unique_ptr<posix::Lsd>> daemons;
  for (int i = 0; i < opt.depots; ++i) {
    daemons.push_back(std::make_unique<posix::Lsd>(loop, dcfg));
  }
  posix::Lsd& daemon = *daemons.front();
  daemon.set_metrics(&lsd_metrics);
  daemon.pool().set_metrics(&pool_metrics);

  std::vector<std::string> depot_names;
  for (const auto& d : daemons) {
    depot_names.push_back("127.0.0.1:" + std::to_string(d->port()));
  }

  // Client-side health plane: the load driver is the source app here, so
  // the board that admission-guards depot choice lives with it. Sessions
  // under the plane run resumable with the sink in adopt mode: every
  // attempt and mid-transfer re-route of a slot is stitched under the
  // slot's stable session id, so a re-selected transfer resumes from the
  // sink's acked frontier instead of starting over.
  health::HealthBoard board;
  if (opt.health) sink.set_adopt_migrations(true);

  // Churn: arm the fault plan against one depot chosen from the seed —
  // deterministic, but not always depot 0, so the health plane is tested
  // against a target the client did not hard-code around.
  std::unique_ptr<posix::LsdFaultDriver> churn;
  std::size_t churned_depot = 0;
  if (!opt.churn_spec.empty()) {
    std::string err;
    const auto plan = fault::parse_fault_spec(opt.churn_spec, &err);
    if (!plan) {
      std::fprintf(stderr, "lsl_load: bad --churn-spec: %s\n", err.c_str());
      return 2;
    }
    util::Rng churn_rng(opt.seed ^ 0xc09b9u);
    churned_depot = static_cast<std::size_t>(churn_rng() % daemons.size());
    churn = std::make_unique<posix::LsdFaultDriver>(*daemons[churned_depot],
                                                    *plan);
    churn->arm();
    std::printf("lsl_load: churn plan %s armed on depot %zu of %zu\n",
                plan->to_spec().c_str(), churned_depot, daemons.size());
  }

  if (opt.trace) {
    // Big enough that a default run's full lifecycle survives the ring.
    tracer = std::make_unique<span::Tracer>(
        "lsd." + std::to_string(daemon.port()), 64 * 1024);
    daemon.set_tracer(tracer.get());
  }

  std::size_t verified = 0;
  std::size_t mismatched = 0;
  std::size_t failed_attempts = 0;
  std::uint64_t payload_total = 0;
  // Exact completion times alongside the histogram: the exported buckets
  // double (latency_ms_bounds), which is fine for dashboards but too
  // coarse for the churn p99 gate — a tail one bucket up always reads as
  // exactly 2x. The summary and JSON percentiles interpolate the samples.
  std::vector<double> session_ms_samples;
  sink.on_complete = [&](const posix::SinkResult& r) {
    if (r.verified) {
      ++verified;
      payload_total += r.payload_bytes;
      session_ms.observe(r.seconds * 1000.0);
      session_ms_samples.push_back(r.seconds * 1000.0);
    } else {
      // A truncated or corrupt attempt: the source sees the same death
      // (no kStatusOk) and relaunches the slot under backoff, so this is
      // a retryable attempt, not a lost session. Slots that never recover
      // are charged against the run when their retry budget runs out.
      ++failed_attempts;
    }
  };

  posix::PosixSourceConfig scfg;
  scfg.route = {posix::InetAddress::loopback(daemon.port())};
  scfg.destination = posix::InetAddress::loopback(sink.port());
  scfg.payload_bytes = opt.bytes;
  scfg.payload_seed = static_cast<std::uint32_t>(opt.seed);

  std::vector<Slot> slots(opt.sessions);
  constexpr std::uint32_t kMaxAttempts = 25;
  // Mid-transfer re-selections before a source gives the slot back to the
  // relaunch path: enough to ride out a rolling outage, small enough that
  // a totally dead topology still fails fast.
  constexpr std::uint32_t kMaxReroutes = 8;
  if (opt.health) {
    util::Rng health_sessions(opt.seed ^ 0x5ea15e55);
    for (auto& s : slots) {
      s.session = core::SessionId::generate(health_sessions);
    }
  }
  // Striped slots mint one session id per attempt from this stream: the
  // sink groups lanes by session id and keeps groups for its lifetime, so
  // a relaunched attempt must not rejoin its failed predecessor's group.
  util::Rng striped_sessions(opt.seed ^ 0x517217e5);
  // Depot choice per attempt. Without --health: rotate, so a retry after
  // a depot failure lands elsewhere (the naive baseline the churn gate
  // compares against). With --health: the best-scoring admissible depot,
  // scanning from a rotating start so equal scores still spread; when the
  // board refuses everyone, fall back to the least-bad depot — refusing
  // to run at all would be worse than a degraded depot.
  auto pick_depot = [&](std::size_t idx, std::uint32_t prior) {
    const std::size_t n = daemons.size();
    const std::size_t fallback = (idx + prior) % n;
    if (!opt.health || n == 1) return fallback;
    bool found = false;
    double best = -1.0;
    std::size_t best_i = fallback;
    double best_any = -1.0;
    std::size_t best_any_i = fallback;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t cand = (idx + prior + k) % n;
      const double sc = board.score(depot_names[cand]);
      if (sc > best_any) {
        best_any = sc;
        best_any_i = cand;
      }
      if (board.admissible(depot_names[cand]) && sc > best) {
        found = true;
        best = sc;
        best_i = cand;
      }
    }
    if (!found) {
      board.note_admission_refused();
      return best_any_i;
    }
    return best_i;
  };
  auto launch = [&](Slot& s) {
    ++s.attempts;
    s.relaunch_due = false;
    const std::size_t idx = static_cast<std::size_t>(&s - slots.data());
    Slot* sp = &s;
    const auto done = [&, sp](bool ok) {
      if (opt.health && !sp->depot.empty()) {
        const std::uint64_t ms = steady_ms();
        if (ok) {
          board.observe_success(sp->depot, ms);
        } else {
          board.observe_failure(sp->depot, ms);
        }
      }
      if (ok) {
        sp->completed = true;
        return;
      }
      // Refused at admission (or reset mid-handshake): back off linearly
      // and try again — the pool drains as running sessions finish.
      sp->relaunch_due = true;
      sp->next_attempt = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(20 * sp->attempts);
    };
    if (opt.stripes > 1) {
      posix::StripedPosixSourceConfig cfg;
      for (int j = 0; j < opt.stripes; ++j) {
        cfg.lane_routes.push_back(
            {posix::InetAddress::loopback(daemon.port())});
      }
      cfg.destination = posix::InetAddress::loopback(sink.port());
      cfg.payload_bytes = opt.bytes;
      cfg.payload_seed = static_cast<std::uint32_t>(opt.seed);
      // Lane recovery here is whole-slot relaunch under backoff (same
      // contract as unstriped slots); in-session re-striping is for real
      // multi-depot deployments with spare chains to move to.
      cfg.max_restripes = 0;
      cfg.session = core::SessionId::generate(striped_sessions);
      if (opt.trace) {
        cfg.trace_id = span::mint_trace_id(opt.seed * 100003 + idx);
      }
      s.source.reset();
      s.striped = std::make_unique<posix::StripedPosixSource>(
          loop, std::move(cfg));
      s.striped->on_done = done;
      s.striped->start();
      return;
    }
    posix::PosixSourceConfig cfg = scfg;
    const std::size_t depot_idx = pick_depot(idx, s.attempts - 1);
    s.depot = depot_names[depot_idx];
    cfg.route = {posix::InetAddress::loopback(daemons[depot_idx]->port())};
    if (opt.health) {
      cfg.session = s.session;
      cfg.resumable = true;
      // A chain death lands here before the source fails the slot: charge
      // the depot and ask the driver loop for a re-route from the sink's
      // frontier. The returned delay is only the fallback re-dial for
      // when the migrate cannot run (the board refuses every depot, or
      // the verdict raced the death) — by then a short outage has passed.
      cfg.reconnect_backoff =
          [&, sp]() -> std::optional<std::chrono::milliseconds> {
        if (!sp->depot.empty()) {
          board.observe_failure(sp->depot, steady_ms());
        }
        if (sp->reroutes >= kMaxReroutes) return std::nullopt;
        ++sp->reroutes;
        sp->migrate_due = true;
        return std::chrono::milliseconds(100);
      };
    }
    if (opt.trace) {
      // One id per slot, stable across retry attempts (a retried slot is
      // the same logical transfer) and deterministic from the run seed.
      cfg.trace_id = span::mint_trace_id(opt.seed * 100003 + idx);
    }
    s.source = std::make_unique<posix::PosixSource>(loop, cfg);
    s.source->on_done = done;
    s.source->start();
  };

  const auto t0 = std::chrono::steady_clock::now();
  for (auto& s : slots) launch(s);

  const auto deadline =
      t0 + std::chrono::duration<double>(opt.timeout_s);
  bool gave_up = false;
  while (verified + mismatched < opt.sessions) {
    const auto now = std::chrono::steady_clock::now();
    if (now > deadline) {
      gave_up = true;
      break;
    }
    for (auto& s : slots) {
      if (s.migrate_due) {
        s.migrate_due = false;
        if (s.source && !s.source->finished() &&
            !sink.session_completed(s.session)) {
          // Proactive mid-transfer re-selection: pick a fresh admissible
          // depot (the failure just charged tanked the dead one's score)
          // and resume from the sink's acked frontier — never the
          // source's own counter, which includes bytes stranded in the
          // dead chain's buffers.
          const std::size_t idx = static_cast<std::size_t>(&s - slots.data());
          const std::size_t to = pick_depot(idx, s.attempts - 1 + s.reroutes);
          const std::uint64_t floor = sink.session_frontier(s.session);
          if (s.source->migrate(
                  {posix::InetAddress::loopback(daemons[to]->port())},
                  floor)) {
            s.depot = depot_names[to];
            board.note_migration();
          }
        }
      }
      if (s.relaunch_due && now >= s.next_attempt) {
        if (opt.health && sink.session_completed(s.session)) {
          // The verdict byte died with the chain, but the sink already
          // ruled on (and counted) the stitched stream: the slot is done.
          s.relaunch_due = false;
        } else if (s.attempts >= kMaxAttempts) {
          ++mismatched;  // counts against the run
          s.relaunch_due = false;
        } else {
          launch(s);
        }
      }
    }
    loop.run_once(20);
    if (churn) churn->poll();
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Aggregate across depots: counters sum; peak is the per-depot maximum
  // (each depot owns a full budget, so the assertion is per-pool). With
  // --depots=1 every figure matches the historical single-daemon output.
  buf::PoolStats pool;
  bool pool_over = false;
  for (const auto& d : daemons) {
    const buf::PoolStats ps = d->pool().stats();
    pool.allocs += ps.allocs;
    pool.reuses += ps.reuses;
    pool.creations += ps.creations;
    pool.failures += ps.failures;
    pool.in_use_bytes += ps.in_use_bytes;
    pool.free_chunks += ps.free_chunks;
    pool.pressure_episodes += ps.pressure_episodes;
    if (ps.peak_bytes > pool.peak_bytes) pool.peak_bytes = ps.peak_bytes;
    pool_over = pool_over || (opt.budget > 0 && ps.peak_bytes > opt.budget);
  }
  posix::LsdStats st;
  for (const auto& d : daemons) st = st + d->stats();
  const std::uint64_t rss = peak_rss_bytes();
  const double reuse_rate =
      pool.allocs > 0
          ? static_cast<double>(pool.reuses) / static_cast<double>(pool.allocs)
          : 0.0;
  const double mbps =
      elapsed > 0 ? static_cast<double>(payload_total) * 8 / 1e6 / elapsed
                  : 0.0;
  const double sessions_per_s =
      elapsed > 0 ? static_cast<double>(verified) / elapsed : 0.0;

  std::printf(
      "lsl_load: %zu/%zu sessions verified in %.3f s "
      "(%.2f Mbit/s aggregate, %.2f sessions/s)\n",
      verified, opt.sessions, elapsed, mbps, sessions_per_s);
  if (failed_attempts > 0) {
    std::printf("  retries: %zu failed attempts relaunched\n",
                failed_attempts);
  }
  std::string stripes_json;
  if (opt.stripes > 1) {
    std::uint64_t lanes_lost = 0;
    std::uint64_t lanes_recovered = 0;
    for (const Slot& s : slots) {
      if (!s.striped) continue;
      lanes_lost += s.striped->stripes_lost();
      lanes_recovered += s.striped->stripes_recovered();
    }
    std::printf("  striping: %d lanes/session, %llu lanes lost, "
                "%llu recovered\n",
                opt.stripes, static_cast<unsigned long long>(lanes_lost),
                static_cast<unsigned long long>(lanes_recovered));
    stripes_json = " \"stripes\": " + std::to_string(opt.stripes) + ",";
  }
  std::printf(
      "  pool: peak %llu / budget %llu bytes, %llu allocs "
      "(%.1f%% reuse), %llu refusals, %llu pressure episodes\n",
      static_cast<unsigned long long>(pool.peak_bytes),
      static_cast<unsigned long long>(opt.budget),
      static_cast<unsigned long long>(pool.allocs), reuse_rate * 100,
      static_cast<unsigned long long>(pool.failures),
      static_cast<unsigned long long>(pool.pressure_episodes));
  std::printf(
      "  daemon: %llu relayed (%llu spliced), %llu sessions refused at "
      "admission; peak RSS %llu KiB\n",
      static_cast<unsigned long long>(st.bytes_relayed),
      static_cast<unsigned long long>(st.bytes_spliced),
      static_cast<unsigned long long>(st.sessions_refused),
      static_cast<unsigned long long>(rss / 1024));
  std::sort(session_ms_samples.begin(), session_ms_samples.end());
  const auto latency_pct = [&](double q) -> double {
    if (session_ms_samples.empty()) return 0.0;
    const double rank = q * static_cast<double>(session_ms_samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, session_ms_samples.size() - 1);
    return session_ms_samples[lo] +
           (rank - static_cast<double>(lo)) *
               (session_ms_samples[hi] - session_ms_samples[lo]);
  };
  std::printf("  session latency: p50 %.1f ms, p90 %.1f ms, p99 %.1f ms\n",
              latency_pct(0.50), latency_pct(0.90), latency_pct(0.99));
  std::string churn_json;
  if (opt.depots > 1) {
    churn_json += " \"depots\": " + std::to_string(opt.depots) + ",";
  }
  if (opt.health) {
    std::printf(
        "  health: %zu depot rows, %llu admission refusals, "
        "%llu mid-transfer re-selections\n",
        board.rows().size(),
        static_cast<unsigned long long>(board.admission_refused()),
        static_cast<unsigned long long>(board.migrations()));
    churn_json += " \"health\": true, \"migrations\": " +
                  std::to_string(board.migrations()) + ",";
  }
  if (churn) {
    std::printf("  churn: depot %zu, %llu faults injected\n", churned_depot,
                static_cast<unsigned long long>(churn->injected()));
    churn_json += " \"churn_spec\": \"" + opt.churn_spec + "\"," +
                  " \"churn_depot\": " + std::to_string(churned_depot) +
                  ", \"churn_faults\": " + std::to_string(churn->injected()) +
                  ",";
  }

  const bool over_budget = pool_over;
  const bool ok = !gave_up && mismatched == 0 &&
                  verified == opt.sessions && !over_budget;

  if (!opt.json_file.empty()) {
    std::FILE* f = std::fopen(opt.json_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "lsl_load: cannot write %s\n",
                   opt.json_file.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\"sessions\": %zu, \"verified\": %zu, \"failed_attempts\": %zu,"
        " \"bytes_per_session\": %llu,"
        " \"elapsed_s\": %.6f, \"aggregate_mbps\": %.3f,"
        " \"sessions_per_s\": %.3f, \"splice\": %s,%s%s"
        " \"bytes_relayed\": %llu, \"bytes_spliced\": %llu,"
        " \"pool_budget_bytes\": %llu, \"pool_peak_bytes\": %llu,"
        " \"pool_allocs\": %llu, \"pool_reuse_rate\": %.4f,"
        " \"pool_failures\": %llu, \"pool_pressure_episodes\": %llu,"
        " \"sessions_refused\": %llu, \"peak_rss_bytes\": %llu,"
        " \"latency_p50_ms\": %.3f, \"latency_p90_ms\": %.3f,"
        " \"latency_p99_ms\": %.3f,"
        " \"ok\": %s}\n",
        opt.sessions, verified, failed_attempts,
        static_cast<unsigned long long>(opt.bytes), elapsed, mbps,
        sessions_per_s, opt.splice ? "true" : "false",
        stripes_json.c_str(), churn_json.c_str(),
        static_cast<unsigned long long>(st.bytes_relayed),
        static_cast<unsigned long long>(st.bytes_spliced),
        static_cast<unsigned long long>(opt.budget),
        static_cast<unsigned long long>(pool.peak_bytes),
        static_cast<unsigned long long>(pool.allocs), reuse_rate,
        static_cast<unsigned long long>(pool.failures),
        static_cast<unsigned long long>(pool.pressure_episodes),
        static_cast<unsigned long long>(st.sessions_refused),
        static_cast<unsigned long long>(rss), latency_pct(0.50),
        latency_pct(0.90), latency_pct(0.99),
        ok ? "true" : "false");
    std::fclose(f);
  }
  if (!opt.spans_file.empty()) {
    if (!span::dump_file(*tracer, opt.spans_file)) {
      std::fprintf(stderr, "lsl_load: cannot write %s\n",
                   opt.spans_file.c_str());
      return 1;
    }
    std::printf("  spans: %llu recorded (%llu dropped) -> %s\n",
                static_cast<unsigned long long>(tracer->recorder().recorded()),
                static_cast<unsigned long long>(tracer->recorder().dropped()),
                opt.spans_file.c_str());
  }
  if (!opt.metrics_file.empty() &&
      !metrics::write_file(registry, opt.metrics_file)) {
    std::fprintf(stderr, "lsl_load: cannot write %s\n",
                 opt.metrics_file.c_str());
    return 1;
  }
  if (over_budget) {
    std::fprintf(stderr, "lsl_load: FAIL pool peak exceeded budget\n");
  }
  if (gave_up) {
    std::fprintf(stderr, "lsl_load: FAIL timed out with sessions pending\n");
  }
  if (mismatched > 0) {
    std::fprintf(stderr, "lsl_load: FAIL %zu sessions failed verification\n",
                 mismatched);
  }
  return ok ? 0 : 1;
}
