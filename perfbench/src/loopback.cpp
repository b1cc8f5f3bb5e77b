// Loopback workloads: LSL sessions over real sockets through one depot.
//
// Topology: source -> lsd -> verifying sink, all on 127.0.0.1. The depot
// (posix::Lsd) runs on its own thread with its own EpollEngine; sources and
// the sink share the calling (client) thread's engine. Every source is a
// closed-loop application: a slot starts its next session only after the
// sink's verdict on the previous one arrives.
//
// The client is kept off the timed path: set-up pre-generates the payload
// and its MD5 once, and sources copy it in through payload_fill and ship
// the precomputed trailer_digest. The sink still hashes (and on `resume`
// also compares) every byte it receives, and a mismatch fails the session.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "buf/pool.hpp"
#include "engine/post_queue.hpp"
#include "lsl/session_id.hpp"
#include "metrics/instruments.hpp"
#include "metrics/metrics.hpp"
#include "posix/client.hpp"
#include "posix/lsd.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using lsl::posix::EpollLoop;
using lsl::posix::InetAddress;

struct Shape {
  std::uint64_t session_bytes = 0;
  std::size_t concurrency = 0;
  std::size_t warmup_sessions = 0;
  /// Sessions run in lockstep rounds and the depot resets every upstream a
  /// quarter of the way into each round; sources resume.
  bool resume = false;
};

Shape shape_of(const std::string& workload) {
  if (workload == "small") return {64u << 10, 4, 400, false};
  if (workload == "resume") return {16u << 20, 2, 2, true};
  return {16u << 20, 2, 4, false};  // bulk
}

/// Depot-side counters, read on the depot thread so each is a consistent
/// snapshot.
struct DepotCounters {
  lsl::posix::LsdStats stats;
  lsl::buf::PoolStats pool;
  std::uint64_t wakeups = 0;  ///< run_once() calls that dispatched (traced)
  std::uint64_t events = 0;   ///< events those calls dispatched
  std::uint64_t resets = 0;   ///< upstreams the reset plan reset
  double cpu_s = 0.0;         ///< depot thread CPU clock
  double accept_to_dial_ms = 0.0;  ///< mean while traced (LsdMetrics)
};

/// One lsd daemon on a thread of its own.
class Depot {
 public:
  /// `round_bytes` > 0 arms the reset plan: reset every live upstream when
  /// the relayed byte count passes k * round_bytes + round_bytes / 4. With
  /// `uncounted_reset`, one more reset is injected and left out of the
  /// count (the correctness-gate self-test).
  Depot(const lsl::posix::LsdConfig& cfg, std::uint64_t round_bytes,
        bool uncounted_reset)
      : round_bytes_(round_bytes),
        lsd_metrics_(registry_, "perfbench.lsd"),
        uncounted_pending_(uncounted_reset) {
    std::promise<void> ready;
    std::future<void> started = ready.get_future();
    thread_ = std::thread([this, cfg, &ready] { body(cfg, &ready); });
    try {
      started.get();
    } catch (...) {
      thread_.join();
      throw;
    }
  }

  ~Depot() {
    call([this] { stop_ = true; });
    thread_.join();
  }

  Depot(const Depot&) = delete;
  Depot& operator=(const Depot&) = delete;

  std::uint16_t port() const { return port_; }
  double bind_us() const { return bind_us_; }

  DepotCounters counters() {
    return call([this] {
      DepotCounters c;
      c.stats = lsd_->stats();
      c.pool = lsd_->pool().stats();
      c.wakeups = wakeups_;
      c.events = events_;
      c.resets = resets_;
      c.cpu_s = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
      c.accept_to_dial_ms = lsd_metrics_.accept_to_dial_ms->mean();
      return c;
    });
  }

  /// Tracing on: attach the daemon's LsdMetrics and record a span around
  /// every run_once() that dispatched events.
  void set_traced(bool on) {
    call([this, on] {
      traced_ = on;
      lsd_->set_metrics(on ? &lsd_metrics_ : nullptr);
    });
  }

  SpanLog take_spans() {
    return call([this] { return std::exchange(spans_, SpanLog()); });
  }

 private:
  template <typename F>
  auto call(F f) -> decltype(f()) {
    std::packaged_task<decltype(f())()> task(std::move(f));
    auto result = task.get_future();
    posts_.post([&task] { task(); });
    loop_->wakeup();
    return result.get();
  }

  void body(const lsl::posix::LsdConfig& cfg, std::promise<void>* ready) {
    try {
      EpollLoop loop;
      const std::int64_t b0 = now_ns();
      lsl::posix::Lsd lsd(loop, cfg);
      bind_us_ = static_cast<double>(now_ns() - b0) * 1e-3;
      loop.set_wakeup_callback([this] { posts_.drain(); });
      if (round_bytes_ > 0) {
        next_reset_ = round_bytes_ / 4;
        lsd.on_progress = [this, &lsd](std::uint64_t relayed) {
          on_progress(lsd, relayed);
        };
      }
      loop_ = &loop;
      lsd_ = &lsd;
      port_ = lsd.port();
      ready->set_value();
      while (!stop_) {
        if (!traced_) {
          loop.run_once(100);
          continue;
        }
        const std::int64_t t0 = now_ns();
        const int n = loop.run_once(100);
        if (n > 0) {
          ++wakeups_;
          events_ += static_cast<std::uint64_t>(n);
          spans_.record("engine.run_once", 0, 0, t0, now_ns());
        }
      }
      lsd.shutdown();
    } catch (...) {
      if (lsd_ == nullptr) {
        ready->set_exception(std::current_exception());
      } else {
        std::fprintf(stderr, "lsl_perfbench: depot thread failed\n");
        std::terminate();
      }
    }
  }

  void on_progress(lsl::posix::Lsd& lsd, std::uint64_t relayed) {
    // A reset salvages and relays buffered bytes, which re-enters this hook.
    if (injecting_) return;
    injecting_ = true;
    if (relayed >= next_reset_) {
      next_reset_ += round_bytes_;
      resets_ += reset_upstreams(lsd);
    }
    // Self-test: three eighths into the first round — after the counted
    // reset, well before any upstream can reach EOF — reset again until
    // the reset parks a session.
    if (uncounted_pending_ && relayed >= round_bytes_ * 3 / 8) {
      uncounted_pending_ = reset_upstreams(lsd) == 0;
    }
    injecting_ = false;
  }

  /// Reset every live upstream; returns how many sessions that parked.
  static std::uint64_t reset_upstreams(lsl::posix::Lsd& lsd) {
    const std::uint64_t before = lsd.stats().sessions_parked;
    lsd.inject_upstream_reset();
    return lsd.stats().sessions_parked - before;
  }

  const std::uint64_t round_bytes_;
  lsl::metrics::Registry registry_;
  lsl::metrics::LsdMetrics lsd_metrics_;
  lsl::engine::PostQueue posts_;
  std::uint16_t port_ = 0;
  double bind_us_ = 0.0;
  // Depot-thread state.
  lsl::posix::EpollLoop* loop_ = nullptr;
  lsl::posix::Lsd* lsd_ = nullptr;
  bool stop_ = false;
  bool traced_ = false;
  bool uncounted_pending_;
  bool injecting_ = false;
  std::uint64_t next_reset_ = 0;
  std::uint64_t wakeups_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t resets_ = 0;
  SpanLog spans_;
  std::thread thread_;  // last: joined before the state above is destroyed
};

struct PhaseSpec {
  bool via_depot = true;
  std::size_t sessions = 0;  ///< count-bound when > 0, else time-bound
  double seconds = 0.0;
  bool traced = false;
  bool corrupt_first = false;  ///< self-test: flip a byte in session one
};

struct PhaseStats {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t bytes = 0;  ///< sink-verified payload bytes
  std::uint64_t resumes = 0;
  double wall_s = 0.0;
  double client_cpu_s = 0.0;
  std::vector<double> session_ms;  ///< verified sessions
  DepotCounters before;
  DepotCounters after;

  double goodput_mbps() const {
    return static_cast<double>(bytes) * 8.0 / 1e6 / wall_s;
  }
  double gib() const { return static_cast<double>(bytes) / kGiB; }
};

/// One set-up: payload, depot, sink, warm-up sessions. Constructing it is
/// the set-up that setup_s times.
class Rig {
 public:
  Rig(const Shape& shape, std::uint64_t seed, bool uncounted_reset,
      SpanLog* spans)
      : shape_(shape),
        seed_(seed),
        spans_(spans),
        id_rng_(seed ^ 0x5eed5e55u),
        gauge_(run_gauge(seed, std::max<std::size_t>(kGaugeBytes,
                                                     shape.session_bytes),
                         spans)) {
    if (shape.session_bytes == gauge_.stream.size()) {
      digest_ = gauge_.digest;
    } else {
      lsl::md5::Md5 h;
      h.update(std::span<const std::uint8_t>(gauge_.stream.data(),
                                             shape.session_bytes));
      digest_ = h.finalize();
    }

    lsl::posix::LsdConfig cfg;
    if (shape.resume) cfg.resume_grace = std::chrono::milliseconds(5000);
    depot_ = std::make_unique<Depot>(
        cfg, shape.resume ? shape.session_bytes * shape.concurrency : 0,
        uncounted_reset);

    const std::int64_t b0 = now_ns();
    // Resumed sessions carry no digest trailer, so the sink compares
    // content against the seeded stream; otherwise the trailer is checked.
    sink_ = std::make_unique<lsl::posix::PosixSinkServer>(
        loop_, InetAddress::loopback(0), true, seed, shape.resume);
    const std::int64_t b1 = now_ns();
    sink_bind_us_ = static_cast<double>(b1 - b0) * 1e-3;
    if (spans_ != nullptr) spans_->record("posix.bind", 0, 0, b0, b1);
    sink_->on_complete = [this](const lsl::posix::SinkResult& r) {
      if (r.header) {
        sink_results_[r.header->session] = {r.verified, r.payload_bytes};
      }
    };

    PhaseSpec warm;
    warm.sessions = shape.warmup_sessions;
    run_phase(warm);
  }

  Depot& depot() { return *depot_; }
  const Gauge& gauge() const { return gauge_; }
  double sink_bind_us() const { return sink_bind_us_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t resumes() const { return resumes_; }

  PhaseStats run_phase(const PhaseSpec& spec) {
    PhaseStats st;
    if (spec.traced) depot_->set_traced(true);
    st.before = depot_->counters();
    const clockid_t cpu = this_thread_cpu_clock();
    const double cpu0 = cpu_seconds(cpu);
    const auto t0 = Clock::now();
    const auto stop_launching =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(spec.seconds));
    // A session still open this long after launches stop is a hang: count
    // it failed rather than let the run overrun its time limit.
    const auto give_up = stop_launching + std::chrono::seconds(60);

    std::vector<Slot> slots(shape_.concurrency);
    std::size_t launched = 0;
    bool corrupt = spec.corrupt_first;
    const auto may_launch = [&] {
      return spec.sessions > 0 ? launched < spec.sessions
                               : Clock::now() < stop_launching;
    };
    const auto launch_into = [&](Slot& s) {
      launch(s, spec.via_depot, corrupt);
      corrupt = false;
      ++launched;
      ++st.attempted;
    };

    for (;;) {
      std::size_t busy = 0;
      for (Slot& s : slots) {
        if (s.source && s.done) settle(s, spec.traced, &st);
        if (s.source) ++busy;
      }
      // Resume runs in lockstep rounds so the depot's byte-keyed resets
      // land mid-stream in every session of a round.
      if (!shape_.resume || busy == 0) {
        for (Slot& s : slots) {
          if (!s.source && may_launch()) {
            launch_into(s);
            ++busy;
          }
        }
      }
      if (busy == 0) break;
      if (Clock::now() > give_up) {
        std::fprintf(stderr, "lsl_perfbench: %zu session(s) hung\n", busy);
        st.failed += busy;
        break;
      }
      loop_.run_once(5);
    }
    st.wall_s = seconds_between(t0, Clock::now());
    st.client_cpu_s = cpu_seconds(cpu) - cpu0;
    st.after = depot_->counters();
    if (spec.traced) depot_->set_traced(false);
    attempted_ += st.attempted;
    failed_ += st.failed;
    resumes_ += st.resumes;
    return st;
  }

 private:
  struct Slot {
    std::unique_ptr<lsl::posix::PosixSource> source;
    Clock::time_point start;
    Clock::time_point end;
    std::uint64_t span_id = 0;
    bool done = false;
    bool ok = false;
  };
  struct SinkVerdict {
    bool verified = false;
    std::uint64_t payload_bytes = 0;
  };

  void launch(Slot& s, bool via_depot, bool corrupt) {
    lsl::posix::PosixSourceConfig c;
    if (via_depot) c.route = {InetAddress::loopback(depot_->port())};
    c.destination = InetAddress::loopback(sink_->port());
    c.payload_bytes = shape_.session_bytes;
    c.payload_seed = seed_;
    c.session = lsl::core::SessionId::generate(id_rng_);
    const std::uint8_t* payload = gauge_.stream.data();
    c.payload_fill = [payload](std::uint64_t off, std::span<std::uint8_t> out) {
      std::memcpy(out.data(), payload + off, out.size());
    };
    c.trailer_digest = digest_;
    c.corrupt_one_byte = corrupt;
    if (shape_.resume) {
      c.resumable = true;
      c.reconnect_backoff =
          [tries = 0]() mutable -> std::optional<std::chrono::milliseconds> {
        if (++tries > 8) return std::nullopt;
        return std::chrono::milliseconds(1);
      };
    }
    s.done = false;
    s.ok = false;
    s.span_id = ++next_span_id_;
    s.source = std::make_unique<lsl::posix::PosixSource>(loop_, std::move(c));
    s.source->on_done = [&s](bool ok) {
      s.end = Clock::now();
      s.done = true;
      s.ok = ok;
    };
    s.start = Clock::now();
    s.source->start();
  }

  /// A session is verified when its source saw the sink's OK status and the
  /// sink's own verdict (MD5, or content on resume) and byte count agree.
  void settle(Slot& s, bool traced, PhaseStats* st) {
    const auto it = sink_results_.find(s.source->session());
    const bool sink_ok = it != sink_results_.end() && it->second.verified &&
                         it->second.payload_bytes == shape_.session_bytes;
    if (it != sink_results_.end()) sink_results_.erase(it);
    st->resumes += s.source->resumes();
    if (s.ok && sink_ok) {
      st->bytes += shape_.session_bytes;
      st->session_ms.push_back(seconds_between(s.start, s.end) * 1e3);
    } else {
      ++st->failed;
    }
    if (traced && spans_ != nullptr) {
      const auto ns = [](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t.time_since_epoch())
            .count();
      };
      spans_->record("client.session", s.span_id, 0, ns(s.start), ns(s.end));
    }
    s.source.reset();
  }

  const Shape shape_;
  const std::uint64_t seed_;
  SpanLog* spans_;
  lsl::util::Rng id_rng_;
  Gauge gauge_;
  lsl::md5::Digest digest_;
  std::unique_ptr<Depot> depot_;
  EpollLoop loop_;  // before sink_: the sink deregisters from it
  std::unique_ptr<lsl::posix::PosixSinkServer> sink_;
  std::map<lsl::core::SessionId, SinkVerdict> sink_results_;
  double sink_bind_us_ = 0.0;
  std::uint64_t next_span_id_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t resumes_ = 0;
};

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer values from a traced phase.
void layer_values(const PhaseStats& t, const Rig& rig, Outcome* out) {
  auto& v = out->values;
  const DepotCounters& a = t.before;
  const DepotCounters& b = t.after;
  const double wakeups = static_cast<double>(b.wakeups - a.wakeups);
  const double relayed =
      static_cast<double>(b.stats.bytes_relayed - a.stats.bytes_relayed);
  const double depot_cpu = b.cpu_s - a.cpu_s;
  const double sessions = static_cast<double>(t.attempted);
  const double allocs = static_cast<double>(b.pool.allocs - a.pool.allocs);

  v["engine.depot_wakeups_per_mib"] = per(wakeups, relayed / kMiB);
  v["engine.depot_events_per_wakeup"] =
      per(static_cast<double>(b.events - a.events), wakeups);
  v["engine.depot_cpu_us_per_wakeup"] = per(depot_cpu * 1e6, wakeups);
  v["engine.depot_busy_frac"] = per(depot_cpu, t.wall_s);
  v["posix.depot_cpu_us_per_session"] = per(depot_cpu * 1e6, sessions);
  v["posix.accept_to_dial_ms"] = b.accept_to_dial_ms;
  v["posix.spliced_frac"] = per(
      static_cast<double>(b.stats.bytes_spliced - a.stats.bytes_spliced),
      relayed);
  v["posix.sessions_parked_per_session"] = per(
      static_cast<double>(b.stats.sessions_parked - a.stats.sessions_parked),
      sessions);
  v["posix.sessions_resumed_per_session"] = per(
      static_cast<double>(b.stats.sessions_resumed - a.stats.sessions_resumed),
      sessions);
  v["buf.pool_peak_mib"] = static_cast<double>(b.pool.peak_bytes) / kMiB;
  v["buf.pool_reuse_rate"] =
      per(static_cast<double>(b.pool.reuses - a.pool.reuses), allocs);
  v["buf.pool_allocs_per_session"] = per(allocs, sessions);
  v["client.cpu_s_per_gib"] = per(t.client_cpu_s, t.gib());
  v["client.busy_frac"] = per(t.client_cpu_s, t.wall_s);
  // Share of the client thread's CPU that the sink's MD5 alone accounts
  // for, at the rate the set-up gauge measured.
  v["client.md5_frac"] = per(
      static_cast<double>(t.bytes) / 1e6 / rig.gauge().md5_mb_per_s,
      t.client_cpu_s);
  v["client.session_p90_ms"] = percentile(t.session_ms, 0.90);
  v["client.session_p99_ms"] = percentile(t.session_ms, 0.99);
  v["client.session_samples"] = static_cast<double>(t.session_ms.size());
}

}  // namespace

Outcome run_loopback(const Options& opt) {
  const Shape shape = shape_of(opt.workload);
  const bool uncounted = opt.selftest == "uncounted-reset";
  Outcome out;
  SpanLog spans;
  SpanLog* trace = opt.trace ? &spans : nullptr;

  std::vector<double> setup_s;
  std::vector<double> gen_rate;
  std::vector<double> md5_rate;
  std::vector<double> bind_us;
  std::unique_ptr<Rig> rig;
  std::uint64_t resets = 0;
  std::uint64_t resumes = 0;
  std::uint64_t depot_resumed = 0;
  const auto retire = [&] {
    const DepotCounters c = rig->depot().counters();
    resets += c.resets;
    depot_resumed += c.stats.sessions_resumed;
    resumes += rig->resumes();
    out.attempted += rig->attempted();
    out.failed += rig->failed();
    if (trace != nullptr) spans.append(rig->depot().take_spans());
    rig.reset();
  };
  for (int i = 0; i < opt.setups; ++i) {
    if (rig) retire();
    const auto t0 = Clock::now();
    rig = std::make_unique<Rig>(shape, opt.seed, uncounted && i == 0, trace);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    gen_rate.push_back(rig->gauge().gen_mb_per_s);
    md5_rate.push_back(rig->gauge().md5_mb_per_s);
    bind_us.push_back(rig->depot().bind_us());
    bind_us.push_back(rig->sink_bind_us());
  }
  out.md5_mb_per_s = median(md5_rate);

  PhaseSpec timed;
  timed.corrupt_first = opt.selftest == "corrupt";
  if (!opt.trace) {
    timed.seconds = opt.seconds;
    const PhaseStats st = rig->run_phase(timed);
    out.values["goodput_mbps"] = st.goodput_mbps();
    out.values["session_p50_ms"] = median(st.session_ms);
    out.values["depot_cpu_s_per_gib"] =
        per(st.after.cpu_s - st.before.cpu_s, st.gib());
    out.values["setup_s"] = median(setup_s);
  } else {
    // Untraced, traced and (except on resume) floor legs share the time.
    const double legs = shape.resume ? 2.0 : 3.0;
    timed.seconds = opt.seconds / legs;
    const PhaseStats plain = rig->run_phase(timed);
    PhaseSpec traced;
    traced.seconds = opt.seconds / legs;
    traced.traced = true;
    const PhaseStats t = rig->run_phase(traced);
    layer_values(t, *rig, &out);
    out.values["span.overhead_frac"] =
        1.0 - per(t.goodput_mbps(), plain.goodput_mbps());
    if (!shape.resume) {
      // Floor leg: the same sessions straight to the sink, no depot.
      PhaseSpec floor;
      floor.seconds = opt.seconds / legs;
      floor.via_depot = false;
      const PhaseStats f = rig->run_phase(floor);
      out.values["posix.hop_goodput_frac"] =
          per(plain.goodput_mbps(), f.goodput_mbps());
      out.values["posix.hop_session_ms"] =
          median(plain.session_ms) - median(f.session_ms);
    }
    out.values["md5.mb_per_s"] = median(md5_rate);
    out.values["lsl.payload_gen_mb_per_s"] = median(gen_rate);
    out.values["posix.bind_us"] = median(bind_us);
  }
  retire();
  out.values["peak_rss_mib"] = peak_rss_mib();

  if (shape.resume && (resumes != resets || depot_resumed != resets)) {
    std::fprintf(stderr,
                 "lsl_perfbench: resume gate: %llu resets injected, sources "
                 "resumed %llu times, depot rebound %llu\n",
                 static_cast<unsigned long long>(resets),
                 static_cast<unsigned long long>(resumes),
                 static_cast<unsigned long long>(depot_resumed));
    out.correct = false;
  }
  if (shape.resume && resets == 0) {
    std::fprintf(stderr, "lsl_perfbench: resume gate: no reset landed\n");
    out.correct = false;
  }
  if (trace != nullptr && !opt.spans_out.empty() &&
      !spans.write_jsonl(opt.spans_out)) {
    std::fprintf(stderr, "lsl_perfbench: cannot write %s\n",
                 opt.spans_out.c_str());
  }
  return out;
}

double header_codec_ns() {
  // The header a source sends the depot in these workloads.
  lsl::core::SessionHeader h;
  lsl::util::Rng rng(7);
  h.session = lsl::core::SessionId::generate(rng);
  h.flags = lsl::core::kFlagDigestTrailer;
  h.destination = {0x7f000001u, 5000};
  constexpr int kIters = 200000;
  std::vector<std::uint8_t> buf;
  std::uint64_t check = 0;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kIters; ++i) {
    h.payload_length = static_cast<std::uint64_t>(i);
    buf.clear();
    lsl::core::encode_header(h, buf);
    const auto back = lsl::core::decode_header(buf);
    check += back ? back->payload_length : 1;
  }
  const std::int64_t t1 = now_ns();
  if (check != static_cast<std::uint64_t>(kIters) * (kIters - 1) / 2) {
    std::fprintf(stderr, "lsl_perfbench: header codec round trip failed\n");
    return 0.0;
  }
  return static_cast<double>(t1 - t0) / kIters;
}

}  // namespace perfbench
