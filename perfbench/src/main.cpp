// lsl_perfbench: runs one named workload from a seed and prints, as its
// last stdout line, {"correct", "attempted", "failed", "metrics"}. The line
// before it is the machine fingerprint. Exit status is 0 only when every
// session verified and every correctness gate held.
//
//   lsl_perfbench --workload bulk|small|resume|sim --seed N --seconds S
//                 --trace 0|1 [--spans-out FILE] [--setups K]
//                 [--selftest corrupt|uncounted-reset|model-drift]
//   lsl_perfbench --print-sim-table
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <span>
#include <string>

#include "util/log.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// What a user of LSL sees; reported untraced on every workload.
const MetricDef kEndToEnd[] = {
    {"goodput_mbps", "Mbit/s"},
    {"session_p50_ms", "ms"},
    {"depot_cpu_s_per_gib", "s/GiB"},
    {"peak_rss_mib", "MiB"},
    {"setup_s", "s"},
};

// Per-layer attribution from the traced run; README.md maps each to the
// end-to-end metric it should move. A workload reports 0 for a layer its
// data path does not run.
const MetricDef kPerLayer[] = {
    {"engine.depot_wakeups_per_mib", "count/MiB"},
    {"engine.depot_events_per_wakeup", "count"},
    {"engine.depot_cpu_us_per_wakeup", "us"},
    {"engine.depot_busy_frac", "frac"},
    {"posix.depot_cpu_us_per_session", "us"},
    {"posix.accept_to_dial_ms", "ms"},
    {"posix.bind_us", "us"},
    {"posix.spliced_frac", "frac"},
    {"posix.sessions_parked_per_session", "count"},
    {"posix.sessions_resumed_per_session", "count"},
    {"posix.hop_goodput_frac", "frac"},
    {"posix.hop_session_ms", "ms"},
    {"buf.pool_peak_mib", "MiB"},
    {"buf.pool_reuse_rate", "frac"},
    {"buf.pool_allocs_per_session", "count"},
    {"client.cpu_s_per_gib", "s/GiB"},
    {"client.busy_frac", "frac"},
    {"client.md5_frac", "frac"},
    {"client.session_p90_ms", "ms"},
    {"client.session_p99_ms", "ms"},
    {"client.session_samples", "count"},
    {"md5.mb_per_s", "MB/s"},
    {"lsl.payload_gen_mb_per_s", "MB/s"},
    {"lsl.header_codec_ns", "ns"},
    {"exp.direct_wall_ms", "ms"},
    {"exp.lsl_wall_ms", "ms"},
    {"exp.simulated_speedup", "ratio"},
    {"tcp.retransmits_per_transfer", "count"},
    {"span.overhead_frac", "frac"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "lsl_perfbench: %s\n"
               "usage: lsl_perfbench --workload bulk|small|resume|sim "
               "--seed N --seconds S --trace 0|1\n"
               "                     [--spans-out FILE] [--setups K] "
               "[--selftest corrupt|uncounted-reset|model-drift]\n"
               "       lsl_perfbench --print-sim-table\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  lsl::util::set_log_level(lsl::util::LogLevel::kWarn);

  Options opt;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-sim-table") return print_sim_table();
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      if (!parse_u64(val, &opt.seed)) return usage("bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_u64(val, &n) || n < 1 || n > 600) return usage("bad --seconds");
      opt.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        return usage("bad --trace");
      }
      opt.trace = val[0] == '1';
      have_trace = true;
    } else if (arg == "--selftest") {
      opt.selftest = val;
    } else if (arg == "--spans-out") {
      opt.spans_out = val;
    } else if (arg == "--setups") {
      if (!parse_u64(val, &n) || n < 1 || n > 50) return usage("bad --setups");
      opt.setups = static_cast<int>(n);
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  const bool loopback = opt.workload == "bulk" || opt.workload == "small" ||
                        opt.workload == "resume";
  if (!loopback && opt.workload != "sim") return usage("unknown --workload");
  const bool selftest_ok =
      opt.selftest.empty() ||
      (opt.selftest == "corrupt" && loopback && opt.workload != "resume") ||
      (opt.selftest == "uncounted-reset" && opt.workload == "resume") ||
      (opt.selftest == "model-drift" && opt.workload == "sim");
  if (!selftest_ok) return usage("--selftest does not fit this workload");

  Outcome out;
  try {
    out = loopback ? run_loopback(opt) : run_sim(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lsl_perfbench: %s\n", e.what());
    return 3;
  }
  if (opt.trace) out.values["lsl.header_codec_ns"] = header_codec_ns();

  Result res;
  res.correct = out.correct && out.failed == 0;
  res.attempted = out.attempted;
  res.failed = out.failed;
  for (const MetricDef& m : opt.trace ? std::span<const MetricDef>(kPerLayer)
                                      : std::span<const MetricDef>(kEndToEnd)) {
    const auto it = out.values.find(m.name);
    if (!opt.trace && it == out.values.end()) {
      std::fprintf(stderr, "lsl_perfbench: %s not measured\n", m.name);
      return 3;
    }
    res.add(m.name, it == out.values.end() ? 0.0 : it->second, m.unit);
  }
  std::printf("%s\n%s\n", fingerprint_json(out.md5_mb_per_s).c_str(),
              res.to_json().c_str());
  std::fflush(stdout);
  return res.correct && res.attempted > 0 ? 0 : 1;
}
