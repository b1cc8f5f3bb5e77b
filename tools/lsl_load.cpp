// lsl_load — capacity harness for the lsd daemon's pooled-memory data path.
//
// Runs N concurrent LSL sessions through real depots in a single process
// and reports what the pools did under load: aggregate throughput, session
// completion rate, peak RSS, and pool counters (docs/OBSERVABILITY.md).
// Exit status is nonzero if any session fails verification or a depot's
// pool peak exceeds its budget — which makes this binary the assertion
// behind scripts/bench_smoke.sh.
//
//   lsl_load [--sessions=N] [--bytes=SIZE] [--budget=SIZE] [--chunk=SIZE]
//            [--buffer=SIZE] [--no-splice] [--seed=S] [--json=FILE]
//            [--metrics-out=FILE] [--log-level=LEVEL]
//            [--trace] [--spans-out=FILE] [--cores=N] [--stripes=N]
//            [--depots=N] [--churn-spec=SPEC] [--health]
//
// SIZE accepts k/m/g suffixes (binary units): --bytes=4m, --budget=64m.
// Every depot is the runtime every lsd_relay daemon runs: a
// posix::ShardedLsd with --cores=N (alias --shards=N, default 1)
// SO_REUSEPORT shards on one port and one shared budget. The client is
// split across N driver threads, each with its own event loop and
// verifying sink; a slot's connections (lanes, retries, migrations) all
// target its own thread's sink. Sessions refused by pool-pressure
// admission control are retried with backoff (the client half of the
// hop-by-hop backpressure contract), so a run under memory pressure
// completes late rather than failing.
//
// --trace mints one trace id per session slot (deterministic from --seed)
// so every session's lifecycle lands in depot 0's flight recorder
// ("lsd.<port>"); --spans-out dumps the recorder as JSONL on exit (implies
// --trace) for tools/lsl_spans. --metrics-out exports depot 0's
// `lsd.shard<i>.*`/`loop.shard<i>.*` bundles and `load.session_ms`. The
// summary reports exact interpolated session-latency percentiles
// (p50/p90/p99) over every driver thread's completion times.
//
// --stripes=N with N >= 2 turns every session into a striped (wire v3)
// transfer: N lanes per session, each relayed by the depot as its own
// connection, merged by the sink's reassembler. A failed attempt
// relaunches under a fresh session id to keep sink groups distinct.
// --stripes requires --depots=1.
//
// --depots=N runs N independent depots and spreads sessions across them;
// --churn-spec=SPEC arms a fault plan (docs/FAULTS.md grammar) on every
// shard of one depot chosen from --seed — the churn acceptance scenario
// from docs/HEALTH.md. --health attaches a client-side depot HealthBoard
// shared by the driver threads: each attempt routes to the best-scoring
// admissible depot, completions/failures feed its scores, and a chain that
// dies mid-transfer is re-routed from the sink's frontier, so churned
// depots shed load instead of burning every slot's retry budget.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <csignal>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
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
#include "posix/sharded_lsd.hpp"
#include "posix/socket_util.hpp"
#include "posix/striped_client.hpp"
#include "span/span.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

#include "cli_args.hpp"

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

/// Split "--name=value" / "--name value" argument forms.
const char* arg_value(const char* name, int argc, char** argv, int* i) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(argv[*i], name, n) != 0) return nullptr;
  if (argv[*i][n] == '=') return argv[*i] + n + 1;
  if (argv[*i][n] == '\0' && *i + 1 < argc) return argv[++*i];
  return nullptr;
}

/// Strict size and duration options, reported by name like cli::read_count.
template <typename T>
bool read_size(const char* name, const char* v, T* out) {
  const auto n = util::parse_size(v);
  if (n && *n <= std::numeric_limits<T>::max()) {
    *out = static_cast<T>(*n);
    return true;
  }
  std::fprintf(stderr,
               "lsl_load: %s must be a size such as 4096, 64k or 1.5m, "
               "not '%s'\n",
               name, v);
  return false;
}

bool read_seconds(const char* name, const char* v, double* out) {
  const char* end = v + std::strlen(v);
  double t = 0;
  const auto [ptr, ec] = std::from_chars(v, end, t);
  if (ec == std::errc() && ptr == end && std::isfinite(t) && t > 0) {
    *out = t;
    return true;
  }
  std::fprintf(stderr,
               "lsl_load: %s must be a positive number of seconds, not '%s'\n",
               name, v);
  return false;
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

/// What every driver thread shares. Only the board (mutex-guarded) and
/// the histogram (atomic) are written once the threads run.
struct Run {
  Run(const Options& o, metrics::Histogram& h) : opt(o), session_ms(h) {}
  const Options& opt;
  std::vector<std::uint16_t> depot_ports;
  std::vector<std::string> depot_names;
  std::vector<core::SessionId> sessions;  ///< --health: one id per slot
  health::HealthBoard board;
  metrics::Histogram& session_ms;
  std::chrono::steady_clock::time_point t0;
};

/// What one driver thread contributes to the run totals.
struct DriverResult {
  std::size_t verified = 0;
  std::size_t mismatched = 0;  ///< slots that exhausted their retries
  std::size_t failed_attempts = 0;
  std::uint64_t payload = 0;
  std::uint64_t lanes_lost = 0;
  std::uint64_t lanes_recovered = 0;
  bool gave_up = false;
  /// Exact completion times alongside the histogram: the exported buckets
  /// double (latency_ms_bounds), which is fine for dashboards but too
  /// coarse for the churn p99 gate — a tail one bucket up always reads as
  /// exactly 2x. The summary and JSON percentiles interpolate the samples.
  std::vector<double> session_ms;
};

/// Depot choice per attempt. Without --health: rotate, so a retry after a
/// depot failure lands elsewhere (the naive baseline the churn gate
/// compares against). With --health: the best-scoring admissible depot,
/// scanning from a rotating start so equal scores still spread; when the
/// board refuses everyone, fall back to the least-bad depot — refusing to
/// run at all would be worse than a degraded depot.
std::size_t pick_depot(Run& run, std::size_t idx, std::uint32_t prior) {
  const std::size_t n = run.depot_ports.size();
  const std::size_t fallback = (idx + prior) % n;
  if (!run.opt.health || n == 1) return fallback;
  bool found = false;
  double best = -1.0;
  std::size_t best_i = fallback;
  double best_any = -1.0;
  std::size_t best_any_i = fallback;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t cand = (idx + prior + k) % n;
    const double sc = run.board.score(run.depot_names[cand]);
    if (sc > best_any) {
      best_any = sc;
      best_any_i = cand;
    }
    if (run.board.admissible(run.depot_names[cand]) && sc > best) {
      found = true;
      best = sc;
      best_i = cand;
    }
  }
  if (!found) {
    run.board.note_admission_refused();
    return best_any_i;
  }
  return best_i;
}

/// One driver thread's whole world: a private event loop, a private
/// verifying sink, and `count` session slots (global indices starting at
/// `slot_offset`, so trace ids and depot rotation stay deterministic
/// across the split).
DriverResult drive_slots(Run& run, std::size_t count,
                         std::size_t slot_offset) {
  const Options& opt = run.opt;
  DriverResult res;
  if (count == 0) return res;
  engine::EpollEngine loop;
  posix::PosixSinkServer sink(loop, posix::InetAddress::loopback(0),
                              /*expect_header=*/true,
                              static_cast<std::uint32_t>(opt.seed));
  // Sessions under the health plane run resumable with the sink in adopt
  // mode: every attempt and mid-transfer re-route of a slot is stitched
  // under the slot's stable session id, so a re-selected transfer resumes
  // from the sink's acked frontier instead of starting over.
  if (opt.health) sink.set_adopt_migrations(true);
  sink.on_complete = [&](const posix::SinkResult& r) {
    if (r.verified) {
      ++res.verified;
      res.payload += r.payload_bytes;
      run.session_ms.observe(r.seconds * 1000.0);
      res.session_ms.push_back(r.seconds * 1000.0);
    } else {
      // A truncated or corrupt attempt: the source sees the same death
      // (no kStatusOk) and relaunches the slot under backoff, so this is
      // a retryable attempt, not a lost session. Slots that never recover
      // are charged against the run when their retry budget runs out.
      ++res.failed_attempts;
    }
  };

  std::vector<Slot> slots(count);
  constexpr std::uint32_t kMaxAttempts = 25;
  // Mid-transfer re-selections before a source gives the slot back to the
  // relaunch path: enough to ride out a rolling outage, small enough that
  // a totally dead topology still fails fast.
  constexpr std::uint32_t kMaxReroutes = 8;
  if (opt.health) {
    for (std::size_t i = 0; i < count; ++i) {
      slots[i].session = run.sessions[slot_offset + i];
    }
  }
  // Striped slots mint one session id per attempt from this stream: the
  // sink groups lanes by session id and keeps groups for its lifetime, so
  // a relaunched attempt must not rejoin its failed predecessor's group.
  util::Rng striped_sessions((opt.seed ^ 0x517217e5) + slot_offset);
  auto launch = [&](Slot& s) {
    ++s.attempts;
    s.relaunch_due = false;
    const std::size_t idx =
        slot_offset + static_cast<std::size_t>(&s - slots.data());
    Slot* sp = &s;
    const auto done = [&, sp](bool ok) {
      if (opt.health && !sp->depot.empty()) {
        const std::uint64_t ms = steady_ms();
        if (ok) {
          run.board.observe_success(sp->depot, ms);
        } else {
          run.board.observe_failure(sp->depot, ms);
        }
      }
      if (ok) return;
      // Refused at admission (or reset mid-handshake): back off linearly
      // and try again — the pool drains as running sessions finish.
      sp->relaunch_due = true;
      sp->next_attempt = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(20 * sp->attempts);
    };
    // One trace id per slot, stable across retry attempts (a retried slot
    // is the same logical transfer) and deterministic from the run seed.
    const std::uint64_t trace_id =
        opt.trace ? span::mint_trace_id(opt.seed * 100003 + idx) : 0;
    if (opt.stripes > 1) {
      posix::StripedPosixSourceConfig cfg;
      for (int j = 0; j < opt.stripes; ++j) {
        cfg.lane_routes.push_back(
            {posix::InetAddress::loopback(run.depot_ports.front())});
      }
      cfg.destination = posix::InetAddress::loopback(sink.port());
      cfg.payload_bytes = opt.bytes;
      cfg.payload_seed = static_cast<std::uint32_t>(opt.seed);
      // No spare routes: a lost lane fails the slot at once, and recovery
      // is whole-slot relaunch under backoff, as for unstriped slots.
      cfg.session = core::SessionId::generate(striped_sessions);
      cfg.trace_id = trace_id;
      s.striped = std::make_unique<posix::StripedPosixSource>(
          loop, std::move(cfg));
      s.striped->on_done = done;
      s.striped->start();
      return;
    }
    posix::PosixSourceConfig cfg;
    const std::size_t depot_idx = pick_depot(run, idx, s.attempts - 1);
    s.depot = run.depot_names[depot_idx];
    cfg.route = {posix::InetAddress::loopback(run.depot_ports[depot_idx])};
    cfg.destination = posix::InetAddress::loopback(sink.port());
    cfg.payload_bytes = opt.bytes;
    cfg.payload_seed = static_cast<std::uint32_t>(opt.seed);
    cfg.trace_id = trace_id;
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
          run.board.observe_failure(sp->depot, steady_ms());
        }
        if (sp->reroutes >= kMaxReroutes) return std::nullopt;
        ++sp->reroutes;
        sp->migrate_due = true;
        return std::chrono::milliseconds(100);
      };
    }
    s.source = std::make_unique<posix::PosixSource>(loop, cfg);
    s.source->on_done = done;
    s.source->start();
  };

  for (auto& s : slots) launch(s);
  const auto deadline = run.t0 + std::chrono::duration<double>(opt.timeout_s);
  while (res.verified + res.mismatched < count) {
    const auto now = std::chrono::steady_clock::now();
    if (now > deadline) {
      res.gave_up = true;
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
          const std::size_t idx =
              slot_offset + static_cast<std::size_t>(&s - slots.data());
          const std::size_t to =
              pick_depot(run, idx, s.attempts - 1 + s.reroutes);
          const std::uint64_t floor = sink.session_frontier(s.session);
          if (s.source->migrate(
                  {posix::InetAddress::loopback(run.depot_ports[to])},
                  floor)) {
            s.depot = run.depot_names[to];
            run.board.note_migration();
          }
        }
      }
      if (s.relaunch_due && now >= s.next_attempt) {
        if (opt.health && sink.session_completed(s.session)) {
          // The verdict byte died with the chain, but the sink already
          // ruled on (and counted) the stitched stream: the slot is done.
          s.relaunch_due = false;
        } else if (s.attempts >= kMaxAttempts) {
          ++res.mismatched;  // counts against the run
          s.relaunch_due = false;
        } else {
          launch(s);
        }
      }
    }
    loop.run_once(20);
  }
  for (const Slot& s : slots) {
    if (!s.striped) continue;
    res.lanes_lost += s.striped->stripes_lost();
    res.lanes_recovered += s.striped->stripes_recovered();
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if ((v = arg_value("--sessions", argc, argv, &i)) != nullptr) {
      if (!cli::read_count("lsl_load", "--sessions", v, &opt.sessions, 1)) {
        return 2;
      }
    } else if ((v = arg_value("--bytes", argc, argv, &i)) != nullptr) {
      if (!read_size("--bytes", v, &opt.bytes)) return 2;
    } else if ((v = arg_value("--budget", argc, argv, &i)) != nullptr) {
      if (!read_size("--budget", v, &opt.budget)) return 2;
    } else if ((v = arg_value("--chunk", argc, argv, &i)) != nullptr) {
      if (!read_size("--chunk", v, &opt.chunk)) return 2;
    } else if ((v = arg_value("--buffer", argc, argv, &i)) != nullptr) {
      if (!read_size("--buffer", v, &opt.buffer)) return 2;
    } else if (std::strcmp(argv[i], "--no-splice") == 0) {
      opt.splice = false;
    } else if ((v = arg_value("--seed", argc, argv, &i)) != nullptr) {
      if (!cli::read_count("lsl_load", "--seed", v, &opt.seed)) return 2;
    } else if ((v = arg_value("--timeout", argc, argv, &i)) != nullptr) {
      if (!read_seconds("--timeout", v, &opt.timeout_s)) return 2;
    } else if ((v = arg_value("--json", argc, argv, &i)) != nullptr) {
      opt.json_file = v;
    } else if ((v = arg_value("--metrics-out", argc, argv, &i)) != nullptr) {
      opt.metrics_file = v;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      opt.trace = true;
    } else if ((v = arg_value("--spans-out", argc, argv, &i)) != nullptr) {
      opt.spans_file = v;
      opt.trace = true;
    } else if ((v = arg_value("--cores", argc, argv, &i)) != nullptr) {
      if (!cli::read_count("lsl_load", "--cores", v, &opt.cores, 1)) return 2;
    } else if ((v = arg_value("--shards", argc, argv, &i)) != nullptr) {
      if (!cli::read_count("lsl_load", "--shards", v, &opt.cores, 1)) return 2;
    } else if ((v = arg_value("--stripes", argc, argv, &i)) != nullptr) {
      if (!cli::read_count("lsl_load", "--stripes", v, &opt.stripes, 1, 16)) {
        return 2;
      }
    } else if ((v = arg_value("--depots", argc, argv, &i)) != nullptr) {
      if (!cli::read_count("lsl_load", "--depots", v, &opt.depots, 1, 8)) {
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
  if (opt.stripes > 1 && opt.depots > 1) {
    std::fprintf(stderr,
                 "lsl_load: --stripes requires --depots=1 (lanes already "
                 "spread across the one depot)\n");
    return 2;
  }
  // Churn: the fault plan goes to one depot chosen from the seed —
  // deterministic, but not always depot 0, so the health plane is tested
  // against a target the client did not hard-code around.
  std::optional<fault::FaultPlan> churn;
  std::size_t churned_depot = 0;
  if (!opt.churn_spec.empty()) {
    std::string err;
    churn = fault::parse_fault_spec(opt.churn_spec, &err);
    if (!churn) {
      std::fprintf(stderr, "lsl_load: bad --churn-spec: %s\n", err.c_str());
      return 2;
    }
    util::Rng churn_rng(opt.seed ^ 0xc09b9u);
    churned_depot = static_cast<std::size_t>(
        churn_rng() % static_cast<std::uint64_t>(opt.depots));
  }

  metrics::Registry registry;
  metrics::Histogram& session_ms =
      registry.histogram("load.session_ms", metrics::latency_ms_bounds());
  // Declared before the depots: shard teardown flushes open stream windows
  // through the tracer, so it must outlive every ShardedLsd. Big enough
  // that a default run's full lifecycle survives the ring.
  std::unique_ptr<span::Tracer> tracer;
  if (opt.trace) tracer = std::make_unique<span::Tracer>("lsd", 64 * 1024);

  // Depot 0 keeps the metric and tracer hookup; the others are bare
  // depots sessions spread across.
  std::vector<std::unique_ptr<posix::ShardedLsd>> daemons;
  for (int i = 0; i < opt.depots; ++i) {
    posix::ShardedLsdConfig dcfg;
    dcfg.base.buffer_bytes = opt.buffer;
    dcfg.base.use_splice = opt.splice;
    dcfg.base.pool.chunk_bytes = opt.chunk;
    dcfg.base.pool.budget_bytes = opt.budget;
    dcfg.shards = opt.cores;
    if (i == 0) {
      dcfg.registry = &registry;
      dcfg.tracer = tracer.get();
    }
    if (churn && static_cast<std::size_t>(i) == churned_depot) {
      dcfg.fault_plan = churn;
    }
    daemons.push_back(std::make_unique<posix::ShardedLsd>(dcfg));
  }
  if (tracer) tracer->set_source("lsd." + std::to_string(daemons[0]->port()));
  if (churn) {
    std::printf("lsl_load: churn plan %s armed on depot %zu of %zu\n",
                churn->to_spec().c_str(), churned_depot, daemons.size());
  }

  Run run(opt, session_ms);
  for (const auto& d : daemons) {
    run.depot_ports.push_back(d->port());
    run.depot_names.push_back("127.0.0.1:" + std::to_string(d->port()));
  }
  if (opt.health) {
    util::Rng health_sessions(opt.seed ^ 0x5ea15e55);
    for (std::size_t i = 0; i < opt.sessions; ++i) {
      run.sessions.push_back(core::SessionId::generate(health_sessions));
    }
  }

  // Split the slots: the first (sessions % cores) drivers take one extra
  // so every session has exactly one owner.
  const std::size_t cores = static_cast<std::size_t>(opt.cores);
  const std::size_t base = opt.sessions / cores;
  const std::size_t extra = opt.sessions % cores;
  std::vector<DriverResult> results(cores);
  // A driver that throws (say, its sink cannot bind) hands the exception
  // to main, which rethrows it once every driver has been joined.
  std::vector<std::exception_ptr> errors(cores);
  std::vector<std::thread> drivers;
  run.t0 = std::chrono::steady_clock::now();
  std::size_t offset = 0;
  for (std::size_t d = 0; d < cores; ++d) {
    const std::size_t count = base + (d < extra ? 1 : 0);
    drivers.emplace_back([&run, &results, &errors, d, count, offset] {
      try {
        results[d] = drive_slots(run, count, offset);
      } catch (...) {
        errors[d] = std::current_exception();
      }
    });
    offset += count;
  }
  for (auto& t : drivers) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - run.t0)
                             .count();

  DriverResult total;
  for (DriverResult& r : results) {
    total.verified += r.verified;
    total.mismatched += r.mismatched;
    total.failed_attempts += r.failed_attempts;
    total.payload += r.payload;
    total.lanes_lost += r.lanes_lost;
    total.lanes_recovered += r.lanes_recovered;
    total.gave_up = total.gave_up || r.gave_up;
    total.session_ms.insert(total.session_ms.end(), r.session_ms.begin(),
                            r.session_ms.end());
  }

  // Aggregate across depots: counters sum; the peak is the per-depot
  // maximum of the shared budget's high-water mark (each depot owns a full
  // budget, so the assertion is per-depot).
  buf::PoolStats pool;
  posix::LsdStats st;
  std::uint64_t churn_faults = 0;
  for (const auto& d : daemons) {
    const buf::PoolStats ps = d->pool_stats();
    pool.allocs += ps.allocs;
    pool.reuses += ps.reuses;
    pool.failures += ps.failures;
    pool.pressure_episodes += ps.pressure_episodes;
    pool.peak_bytes = std::max(pool.peak_bytes, d->budget().peak());
    st = st + d->stats();
    churn_faults += d->faults_injected();
  }
  const bool over_budget = opt.budget > 0 && pool.peak_bytes > opt.budget;
  const std::uint64_t rss = peak_rss_bytes();
  const double reuse_rate =
      pool.allocs > 0
          ? static_cast<double>(pool.reuses) / static_cast<double>(pool.allocs)
          : 0.0;
  const double mbps =
      elapsed > 0 ? static_cast<double>(total.payload) * 8 / 1e6 / elapsed
                  : 0.0;
  const double sessions_per_s =
      elapsed > 0 ? static_cast<double>(total.verified) / elapsed : 0.0;
  std::vector<double>& samples = total.session_ms;
  std::sort(samples.begin(), samples.end());
  const auto latency_pct = [&](double q) -> double {
    if (samples.empty()) return 0.0;
    const double rank = q * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] +
           (rank - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
  };

  std::printf(
      "lsl_load: %zu/%zu sessions verified in %.3f s "
      "(%.2f Mbit/s aggregate, %.2f sessions/s, %d cores)\n",
      total.verified, opt.sessions, elapsed, mbps, sessions_per_s, opt.cores);
  if (total.failed_attempts > 0) {
    std::printf("  retries: %zu failed attempts relaunched\n",
                total.failed_attempts);
  }
  // Optional JSON fields, in the order the summary prints them.
  std::string extra_json;
  if (opt.stripes > 1) {
    std::printf("  striping: %d lanes/session, %llu lanes lost, "
                "%llu recovered\n",
                opt.stripes, static_cast<unsigned long long>(total.lanes_lost),
                static_cast<unsigned long long>(total.lanes_recovered));
    extra_json += " \"stripes\": " + std::to_string(opt.stripes) + ",";
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
  std::printf("  session latency: p50 %.1f ms, p90 %.1f ms, p99 %.1f ms\n",
              latency_pct(0.50), latency_pct(0.90), latency_pct(0.99));
  if (opt.depots > 1) {
    extra_json += " \"depots\": " + std::to_string(opt.depots) + ",";
  }
  if (opt.health) {
    std::printf(
        "  health: %zu depot rows, %llu admission refusals, "
        "%llu mid-transfer re-selections\n",
        run.board.rows().size(),
        static_cast<unsigned long long>(run.board.admission_refused()),
        static_cast<unsigned long long>(run.board.migrations()));
    extra_json += " \"health\": true, \"migrations\": " +
                  std::to_string(run.board.migrations()) + ",";
  }
  if (churn) {
    std::printf("  churn: depot %zu, %llu faults injected\n", churned_depot,
                static_cast<unsigned long long>(churn_faults));
    extra_json += " \"churn_spec\": \"" + opt.churn_spec + "\"," +
                  " \"churn_depot\": " + std::to_string(churned_depot) +
                  ", \"churn_faults\": " + std::to_string(churn_faults) + ",";
  }

  const bool ok = !total.gave_up && total.mismatched == 0 &&
                  total.verified == opt.sessions && !over_budget;

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
        " \"sessions_per_s\": %.3f, \"splice\": %s, \"cores\": %d,%s"
        " \"bytes_relayed\": %llu, \"bytes_spliced\": %llu,"
        " \"pool_budget_bytes\": %llu, \"pool_peak_bytes\": %llu,"
        " \"pool_allocs\": %llu, \"pool_reuse_rate\": %.4f,"
        " \"pool_failures\": %llu, \"pool_pressure_episodes\": %llu,"
        " \"sessions_refused\": %llu, \"peak_rss_bytes\": %llu,"
        " \"latency_p50_ms\": %.3f, \"latency_p90_ms\": %.3f,"
        " \"latency_p99_ms\": %.3f,"
        " \"ok\": %s}\n",
        opt.sessions, total.verified, total.failed_attempts,
        static_cast<unsigned long long>(opt.bytes), elapsed, mbps,
        sessions_per_s, opt.splice ? "true" : "false", opt.cores,
        extra_json.c_str(),
        static_cast<unsigned long long>(st.bytes_relayed),
        static_cast<unsigned long long>(st.bytes_spliced),
        static_cast<unsigned long long>(opt.budget),
        static_cast<unsigned long long>(pool.peak_bytes),
        static_cast<unsigned long long>(pool.allocs), reuse_rate,
        static_cast<unsigned long long>(pool.failures),
        static_cast<unsigned long long>(pool.pressure_episodes),
        static_cast<unsigned long long>(st.sessions_refused),
        static_cast<unsigned long long>(rss), latency_pct(0.50),
        latency_pct(0.90), latency_pct(0.99), ok ? "true" : "false");
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
  if (total.gave_up) {
    std::fprintf(stderr, "lsl_load: FAIL timed out with sessions pending\n");
  }
  if (total.mismatched > 0) {
    std::fprintf(stderr, "lsl_load: FAIL %zu sessions failed verification\n",
                 total.mismatched);
  }
  return ok ? 0 : 1;
}
