// The `sim` workload: the simulator's figure-suite speed.
//
// One session is one figure point of the large-transfer sweep (Figs 6/8)
// on the paper's Case-1 path: a direct-TCP and an LSL exp::run_transfer of
// the same size with the same seed. The seed list is fixed, and every
// point's simulated result must equal the value recorded below, so a
// speed-up that changes the model fails as incorrect. --seed only rotates
// where in the list a run starts; every run simulates whole rounds of it.
//
// Points run on one worker thread per CPU. On a shared host each core's
// speed wanders independently by tens of percent from second to second;
// loading every core averages that out, where one thread inherits the
// weather of whichever core it lands on.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "exp/runner.hpp"
#include "exp/scenarios.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kPointBytes = 16u << 20;

/// Recorded simulator output per seed (regenerate with --print-sim-table
/// only when a change alters the model on purpose).
struct Fidelity {
  std::uint64_t seed;
  double direct_mbps;
  double lsl_mbps;
  std::uint64_t direct_retx;
  std::uint64_t lsl_retx;
};

const Fidelity kFidelity[] = {
    {1, 11.102199246482387, 14.964271441790991, 4, 3},
    {2, 10.501007878557633, 17.112634456958602, 6, 4},
    {3, 12.204875070170297, 16.805055231389368, 3, 2},
    {4, 9.9986758130625404, 17.296106658707213, 5, 5},
    {5, 10.551064051059519, 15.782855884300824, 4, 5},
    {6, 11.220970432772612, 17.341792868039228, 3, 5},
    {7, 8.9475214817386277, 17.185017645911181, 5, 4},
    {8, 9.8579444027908973, 17.343448303876695, 4, 4},
};
constexpr std::size_t kPoints = sizeof(kFidelity) / sizeof(kFidelity[0]);

struct PointRun {
  lsl::exp::TransferResult direct;
  lsl::exp::TransferResult lsl;
  double wall_ms = 0.0;
};

PointRun run_point(const lsl::exp::PathParams& path, std::uint64_t seed,
                   SpanLog* spans, std::uint64_t span_id) {
  lsl::exp::RunConfig cfg;
  cfg.bytes = kPointBytes;
  cfg.seed = seed;
  PointRun p;
  const std::int64_t t0 = now_ns();
  cfg.mode = lsl::exp::Mode::kDirectTcp;
  p.direct = lsl::exp::run_transfer(path, cfg);
  const std::int64_t t1 = now_ns();
  cfg.mode = lsl::exp::Mode::kLsl;
  p.lsl = lsl::exp::run_transfer(path, cfg);
  const std::int64_t t2 = now_ns();
  p.wall_ms = static_cast<double>(t2 - t0) * 1e-6;
  if (spans != nullptr) {
    spans->record("exp.point", span_id, 0, t0, t2);
    spans->record("exp.run_transfer.direct", span_id, span_id, t0, t1);
    spans->record("exp.run_transfer.lsl", span_id, span_id, t1, t2);
  }
  return p;
}

bool same_mbps(double got, double want) {
  return std::fabs(got - want) <= 1e-9 * std::fabs(want);
}

bool faithful(const PointRun& p, const Fidelity& f) {
  return p.direct.completed && p.lsl.completed &&
         same_mbps(p.direct.mbps, f.direct_mbps) &&
         same_mbps(p.lsl.mbps, f.lsl_mbps) &&
         p.direct.retransmits == f.direct_retx &&
         p.lsl.retransmits == f.lsl_retx;
}

/// Simulated payload per point: both transfers.
constexpr double kPointMbit = 2.0 * kPointBytes * 8.0 / 1e6;
constexpr double kPointGiB = 2.0 * kPointBytes / kGiB;

/// Print the first divergence of the run; the rest repeat it.
void report_divergence(const Fidelity& f, const PointRun& p) {
  static std::atomic_flag reported = ATOMIC_FLAG_INIT;
  if (reported.test_and_set()) return;
  std::fprintf(stderr,
               "lsl_perfbench: sim seed %llu diverged from the recorded model: "
               "direct %.17g Mbit/s %llu retx, lsl %.17g Mbit/s %llu retx\n",
               static_cast<unsigned long long>(f.seed), p.direct.mbps,
               static_cast<unsigned long long>(p.direct.retransmits), p.lsl.mbps,
               static_cast<unsigned long long>(p.lsl.retransmits));
}

struct Round {
  std::size_t points = 0;
  std::size_t failed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> point_ms;
  double speedup_sum = 0.0;
  std::uint64_t retransmits = 0;
  double mbps = 0.0;  ///< simulated payload Mbit per wall second
  unsigned workers = 1;
};

/// Whole rounds of the seed list, from `start`, until `seconds` have passed.
/// Span ids count up from `first_span_id`.
Round run_rounds(const lsl::exp::PathParams& path, std::size_t start,
                 double seconds, SpanLog* spans, std::uint64_t first_span_id) {
  Round r;
  const clockid_t cpu = this_thread_cpu_clock();
  const double cpu0 = cpu_seconds(cpu);
  const auto t0 = Clock::now();
  do {
    for (std::size_t i = 0; i < kPoints; ++i) {
      const Fidelity& f = kFidelity[(start + i) % kPoints];
      const PointRun p = run_point(path, f.seed, spans, first_span_id + r.points);
      ++r.points;
      if (!faithful(p, f)) {
        ++r.failed;
        report_divergence(f, p);
        continue;
      }
      r.point_ms.push_back(p.wall_ms);
      r.speedup_sum += p.lsl.mbps / p.direct.mbps;
      r.retransmits += p.direct.retransmits + p.lsl.retransmits;
    }
  } while (seconds_between(t0, Clock::now()) < seconds);
  r.wall_s = seconds_between(t0, Clock::now());
  r.cpu_s = cpu_seconds(cpu) - cpu0;
  r.mbps = static_cast<double>(r.points - r.failed) * kPointMbit / r.wall_s;
  return r;
}

/// Rounds on every CPU at once, each worker starting at its own place in
/// the list. Workers finish their last rounds at different times, so the
/// merged rate sums each worker's own rate rather than dividing by the
/// wall time to the last join.
Round run_parallel(const lsl::exp::PathParams& path, std::size_t start,
                   double seconds, SpanLog* spans) {
  const unsigned workers = usable_cpus();
  std::vector<Round> rounds(workers);
  std::vector<SpanLog> logs(workers);
  const auto t0 = Clock::now();
  {
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        rounds[w] = run_rounds(path, (start + w) % kPoints, seconds,
                               spans != nullptr ? &logs[w] : nullptr,
                               (std::uint64_t{w} << 32) + 1);
      });
    }
    for (std::thread& t : pool) t.join();
  }
  Round all;
  all.wall_s = seconds_between(t0, Clock::now());
  all.workers = workers;
  for (unsigned w = 0; w < workers; ++w) {
    const Round& r = rounds[w];
    all.points += r.points;
    all.failed += r.failed;
    all.cpu_s += r.cpu_s;
    all.point_ms.insert(all.point_ms.end(), r.point_ms.begin(), r.point_ms.end());
    all.speedup_sum += r.speedup_sum;
    all.retransmits += r.retransmits;
    all.mbps += r.mbps;
    if (spans != nullptr) spans->append(logs[w]);
  }
  return all;
}

}  // namespace

Outcome run_sim(const Options& opt) {
  lsl::exp::PathParams path = lsl::exp::case1_ucsb_uiuc();
  // Self-test: a changed model must fail the fidelity check.
  if (opt.selftest == "model-drift") path.wan1_loss *= 1.5;
  const std::size_t start = static_cast<std::size_t>(opt.seed % kPoints);

  Outcome out;
  SpanLog spans;
  SpanLog* trace = opt.trace ? &spans : nullptr;
  std::vector<double> setup_s;
  std::vector<double> gen_rate;
  std::vector<double> md5_rate;
  for (int i = 0; i < opt.setups; ++i) {
    // Set-up: the host-weather gauge, then one warm-up point.
    const auto t0 = Clock::now();
    const Gauge g = run_gauge(opt.seed, kGaugeBytes, trace);
    const Fidelity& f = kFidelity[start];
    const PointRun warm = run_point(path, f.seed, nullptr, 0);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    gen_rate.push_back(g.gen_mb_per_s);
    md5_rate.push_back(g.md5_mb_per_s);
    ++out.attempted;
    if (!faithful(warm, f)) ++out.failed;
  }
  out.md5_mb_per_s = median(md5_rate);

  if (!opt.trace) {
    const Round r = run_parallel(path, start, opt.seconds, nullptr);
    out.attempted += r.points;
    out.failed += r.failed;
    out.values["goodput_mbps"] = r.mbps;
    out.values["session_p50_ms"] = median(r.point_ms);
    out.values["depot_cpu_s_per_gib"] =
        r.cpu_s / (static_cast<double>(r.points) * kPointGiB);
    out.values["setup_s"] = median(setup_s);
    out.values["peak_rss_mib"] = peak_rss_mib();
    return out;
  }

  const Round plain = run_parallel(path, start, opt.seconds / 2, nullptr);
  const Round t = run_parallel(path, start, opt.seconds / 2, &spans);
  out.attempted += plain.points + t.points;
  out.failed += plain.failed + t.failed;
  auto& v = out.values;
  v["exp.direct_wall_ms"] = median(spans.durations_ms("exp.run_transfer.direct"));
  v["exp.lsl_wall_ms"] = median(spans.durations_ms("exp.run_transfer.lsl"));
  // Counts over whole rounds of the fixed seed list: they repeat exactly.
  const double ok_points = static_cast<double>(t.points - t.failed);
  v["exp.simulated_speedup"] = ok_points > 0 ? t.speedup_sum / ok_points : 0.0;
  v["tcp.retransmits_per_transfer"] =
      ok_points > 0 ? static_cast<double>(t.retransmits) / (2.0 * ok_points)
                    : 0.0;
  v["client.cpu_s_per_gib"] =
      t.cpu_s / (static_cast<double>(t.points) * kPointGiB);
  v["client.busy_frac"] = t.cpu_s / (t.wall_s * t.workers);
  v["client.session_p90_ms"] = percentile(t.point_ms, 0.90);
  v["client.session_p99_ms"] = percentile(t.point_ms, 0.99);
  v["client.session_samples"] = static_cast<double>(t.point_ms.size());
  v["md5.mb_per_s"] = median(md5_rate);
  v["lsl.payload_gen_mb_per_s"] = median(gen_rate);
  v["span.overhead_frac"] = 1.0 - t.mbps / plain.mbps;
  if (!opt.spans_out.empty() && !spans.write_jsonl(opt.spans_out)) {
    std::fprintf(stderr, "lsl_perfbench: cannot write %s\n",
                 opt.spans_out.c_str());
  }
  return out;
}

int print_sim_table() {
  const lsl::exp::PathParams path = lsl::exp::case1_ucsb_uiuc();
  for (const Fidelity& f : kFidelity) {
    const PointRun p = run_point(path, f.seed, nullptr, 0);
    std::printf("    {%llu, %.17g, %.17g, %llu, %llu},\n",
                static_cast<unsigned long long>(f.seed), p.direct.mbps,
                p.lsl.mbps,
                static_cast<unsigned long long>(p.direct.retransmits),
                static_cast<unsigned long long>(p.lsl.retransmits));
  }
  return 0;
}

}  // namespace perfbench
