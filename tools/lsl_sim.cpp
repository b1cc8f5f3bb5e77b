// lsl_sim — run any scenario/mode/size combination from the command line.
//
//   lsl_sim SCENARIO SIZE MODE [options]
//
//   SCENARIO  case1 | case2 | case3 | osu | chain[:N]
//             chain:N is an N-depot cascade (exp::build_chain: total path
//             delay/loss held constant); N defaults to 2, and MODE direct
//             runs the same backbone with 0 depots. Every scenario runs
//             through exp::run_transfer (exp::run_chaos with --fault-spec)
//   SIZE      bytes, with optional K/M/G suffix (e.g. 64M, 1.5k); anything
//             else after the number is rejected
//   MODE      direct | lsl | parallel[:N]   (chain supports direct|lsl)
//
//   --iters N          iterations (default 5)
//   --seed S           base seed (default 42)
//   --fault-spec SPEC  chaos mode (chain + lsl only): run each iteration
//                      under the scripted fault plan (see docs/FAULTS.md for
//                      the grammar) with retry/backoff/reroute recovery
//   --resumable        with --fault-spec: sessions survive mid-stream resets
//                      in place (kFlagResume) instead of retransferring
//   --traces           capture sender-side traces; print per-link RTT and
//                      retransmissions, write seq-growth CSV per iteration
//   --csv FILE         write per-iteration results as CSV
//   --metrics-out FILE dump the metrics registry after all iterations
//                      (.csv -> CSV, anything else -> JSONL); implies the
//                      per-connection/depot instruments and, with --traces,
//                      the trace.<label>.* analysis bridge
//   --log-level LEVEL  debug|info|warn|error|off (default warn)
//
// Example:  lsl_sim chain:2 16M lsl --traces --metrics-out out.jsonl
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include "exp/chaos.hpp"
#include "exp/runner.hpp"
#include "exp/scenarios.hpp"
#include "fault/spec.hpp"
#include "metrics/export.hpp"
#include "metrics/metrics.hpp"
#include "trace/analysis.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

using namespace lsl;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: lsl_sim SCENARIO SIZE MODE [--iters N] [--seed S] "
               "[--traces] [--csv FILE] [--metrics-out FILE] "
               "[--fault-spec SPEC] [--resumable] [--log-level LEVEL]\n"
               "  SCENARIO: case1|case2|case3|osu|chain[:N]   MODE: "
               "direct|lsl|parallel[:N]\n"
               "  --fault-spec needs SCENARIO chain[:N] and MODE lsl\n");
  return 2;
}

/// "NAME" or "NAME:N" with N a positive whole number; false otherwise.
/// `*n` keeps its default when there is no ":N".
bool parse_counted(const std::string& arg, const std::string& name,
                   std::size_t* n) {
  if (arg == name) return true;
  if (arg.rfind(name + ":", 0) != 0) return false;
  const auto v = util::parse_count(arg.substr(name.size() + 1));
  if (!v || *v == 0) return false;
  *n = static_cast<std::size_t>(*v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) return usage();

  exp::PathParams path;
  std::optional<exp::ChainParams> chain;
  std::size_t chain_depots = 2;
  const std::string scen = argv[1];
  if (scen == "case1") {
    path = exp::case1_ucsb_uiuc();
  } else if (scen == "case2") {
    path = exp::case2_ucsb_uf();
  } else if (scen == "case3") {
    path = exp::case3_utk_wireless();
  } else if (scen == "osu") {
    path = exp::case_osu_steady();
  } else if (parse_counted(scen, "chain", &chain_depots)) {
    chain.emplace();
  } else {
    return usage();
  }

  const auto bytes = util::parse_size(argv[2]);
  if (!bytes) return usage();

  exp::RunConfig cfg;
  cfg.bytes = *bytes;
  const std::string mode = argv[3];
  if (mode == "direct") {
    cfg.mode = exp::Mode::kDirectTcp;
  } else if (mode == "lsl") {
    cfg.mode = exp::Mode::kLsl;
  } else if (parse_counted(mode, "parallel", &cfg.parallel_streams)) {
    cfg.mode = exp::Mode::kParallelTcp;
  } else {
    return usage();
  }
  if (chain) {
    if (cfg.mode == exp::Mode::kParallelTcp) return usage();
    chain->depots = cfg.mode == exp::Mode::kLsl ? chain_depots : 0;
  }

  std::size_t iters = 5;
  cfg.seed = 42;
  std::string csv_file;
  std::string metrics_file;
  std::string fault_spec;
  bool resumable = false;
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--iters" && i + 1 < argc) {
      const auto n = util::parse_count(argv[++i]);
      if (!n) return usage();
      iters = static_cast<std::size_t>(*n);
    } else if (arg == "--seed" && i + 1 < argc) {
      const auto n = util::parse_count(argv[++i]);
      if (!n) return usage();
      cfg.seed = *n;
    } else if (arg == "--traces") {
      cfg.capture_traces = true;
    } else if (arg == "--csv" && i + 1 < argc) {
      csv_file = argv[++i];
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_file = argv[++i];
    } else if (arg == "--fault-spec" && i + 1 < argc) {
      fault_spec = argv[++i];
    } else if (arg == "--resumable") {
      resumable = true;
    } else if (arg == "--log-level" && i + 1 < argc) {
      const auto lvl = util::parse_log_level(argv[++i]);
      if (!lvl) return usage();
      util::set_log_level(*lvl);
    } else {
      return usage();
    }
  }

  std::optional<fault::FaultPlan> plan;
  if (!fault_spec.empty()) {
    if (!chain || cfg.mode != exp::Mode::kLsl) return usage();
    std::string err;
    plan = fault::parse_fault_spec(fault_spec, &err);
    if (!plan) {
      std::fprintf(stderr, "lsl_sim: bad --fault-spec: %s\n", err.c_str());
      return 2;
    }
  }

  metrics::Registry registry;
  if (!metrics_file.empty()) cfg.metrics = &registry;

  std::printf("scenario %s, %s, mode %s, %zu iteration(s)\n",
              chain ? scen.c_str() : path.name.c_str(),
              util::format_bytes(cfg.bytes).c_str(),
              mode.c_str(), iters);
  std::printf("%6s %10s %10s %8s %8s\n", "iter", "time_s", "mbps", "retx",
              "rto");

  std::ofstream csv;
  if (!csv_file.empty()) {
    csv.open(csv_file);
    csv << "iter,seconds,mbps,retransmits,timeouts\n";
  }

  util::RunningStats mbps;
  for (std::size_t i = 0; i < iters; ++i) {
    exp::TransferResult r;
    std::string recovery_note;
    if (plan) {
      exp::ChaosParams qp;
      qp.chain = *chain;
      qp.bytes = cfg.bytes;
      qp.seed = cfg.seed + i;
      qp.metrics = cfg.metrics;
      qp.plan = *plan;
      qp.resumable_attempts = resumable;
      if (resumable) qp.chain.depot.resume_grace = 2 * util::kSecond;
      exp::ChaosResult qr = exp::run_chaos(qp);
      r.completed = qr.completed && qr.verified;
      r.bytes = cfg.bytes;
      r.seconds = qr.seconds;
      r.mbps = qr.mbps;
      char note[160];
      std::snprintf(note, sizeof note,
                    "        faults=%llu attempts=%u reroutes=%u resumes=%zu",
                    static_cast<unsigned long long>(qr.faults_injected),
                    qr.attempts, qr.reroutes, qr.resumes);
      recovery_note = note;
      if (qr.reroute_error != fault::RerouteError::kNone) {
        recovery_note += std::string(" (gave up: ") +
                         fault::to_string(qr.reroute_error) + ")";
      }
    } else {
      exp::RunConfig c = cfg;
      c.seed = cfg.seed + i;
      r = chain ? exp::run_transfer(
                      [&chain](std::uint64_t seed) {
                        return exp::build_chain(*chain, seed);
                      },
                      c)
                : exp::run_transfer(path, c);
    }
    if (!r.completed) {
      std::printf("%6zu   (did not complete)\n", i);
      if (!recovery_note.empty()) std::printf("%s\n", recovery_note.c_str());
      continue;
    }
    mbps.add(r.mbps);
    std::printf("%6zu %10.3f %10.2f %8llu %8llu\n", i, r.seconds, r.mbps,
                static_cast<unsigned long long>(r.retransmits),
                static_cast<unsigned long long>(r.timeouts));
    if (!recovery_note.empty()) std::printf("%s\n", recovery_note.c_str());
    if (csv.is_open()) {
      csv << i << ',' << r.seconds << ',' << r.mbps << ',' << r.retransmits
          << ',' << r.timeouts << '\n';
    }
    if (cfg.capture_traces) {
      for (std::size_t k = 0; k < r.traces.size(); ++k) {
        std::printf("        %-10s rtt=%6.1f ms  retx=%llu\n",
                    r.traces[k]->label().c_str(), r.rtt_ms[k],
                    static_cast<unsigned long long>(r.retx_per_link[k]));
        const std::string stem = "seqgrowth_" + scen + "_" + mode + "_i" +
                                 std::to_string(i) + "_" +
                                 r.traces[k]->label() + ".csv";
        std::ofstream sg(stem);
        sg << "time_s,bytes\n";
        for (const auto& pt : trace::sequence_growth(*r.traces[k])) {
          sg << pt.t << ',' << pt.v << '\n';
        }
      }
    }
  }
  std::printf("\nmean %.2f Mbit/s (sd %.2f) over %zu completed run(s)\n",
              mbps.mean(), mbps.stddev(), mbps.count());
  if (!metrics_file.empty()) {
    if (metrics::write_file(registry, metrics_file)) {
      std::printf("metrics: %zu instrument(s) -> %s\n", registry.size(),
                  metrics_file.c_str());
    } else {
      std::fprintf(stderr, "lsl_sim: cannot write %s\n",
                   metrics_file.c_str());
      return 1;
    }
  }
  return mbps.count() > 0 ? 0 : 1;
}
