// lsl_mc — run the deterministic concurrency model-check suite.
//
// Default invocation runs every registered scenario with its per-scenario
// budgets and verifies the expected outcome both ways: a pass scenario must
// explore clean, and a seeded bug fixture must produce a violation whose
// replay seed actually reproduces it (the seed is re-run before the fixture
// counts as caught). Any deviation prints a replay command line and exits
// nonzero, so the run doubles as the CI gate behind `ctest -L mcheck` and
// the `mcheck` column of scripts/check.sh.
//
//   lsl_mc                        run the whole suite
//   lsl_mc --list                 list scenarios and budgets
//   lsl_mc --scenario NAME        run one scenario
//   lsl_mc --budget N             override max schedules explored
//   lsl_mc --preempt K            override the preemption bound
//   lsl_mc --steps N              override the per-execution step cap
//   lsl_mc --replay SEED          replay one exact schedule (with --scenario)
//   lsl_mc --census               print one census line per scenario
//                                 (explored/pruned/exhausted/hash) — the
//                                 determinism-guard format
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "check/sched.hpp"
#include "check/suite.hpp"

#include "cli_args.hpp"

namespace {

using lsl::check::Options;
using lsl::check::Outcome;
using lsl::check::ScenarioInfo;

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: lsl_mc [--list] [--scenario NAME] [--budget N]\n"
               "              [--preempt K] [--steps N] [--replay SEED]\n"
               "              [--census]\n");
}

void list_scenarios() {
  std::printf("%-18s %-8s %-4s %8s %7s  %s\n", "scenario", "subsys", "kind",
              "budget", "preempt", "description");
  for (const ScenarioInfo& s : lsl::check::scenarios()) {
    std::printf("%-18s %-8s %-4s %8d %7d  %s\n", s.name.c_str(),
                s.subsystem.c_str(), s.expect_violation ? "bug" : "pass",
                s.defaults.max_schedules, s.defaults.preemption_bound,
                s.description.c_str());
  }
}

// Exact violation reproduction: same message on the replayed schedule.
bool replay_confirms(const ScenarioInfo& s, const lsl::check::Violation& v,
                     const Options& overrides) {
  Options replay = overrides;
  replay.replay_seed = v.seed;
  const Outcome out = lsl::check::run_scenario(s.name, replay);
  return out.violation.has_value() && out.violation->message == v.message;
}

// Returns true when the scenario behaved as registered.
bool run_one(const ScenarioInfo& s, const Options& overrides, bool census) {
  const Outcome out = lsl::check::run_scenario(s.name, overrides);
  if (census) {
    std::printf("%s %s\n", s.name.c_str(), out.census().c_str());
    return true;  // census mode reports fingerprints, not verdicts
  }
  const char* cover = out.exhausted ? "exhaustive" : "budget";
  if (s.expect_violation) {
    if (!out.violation) {
      std::printf("FAIL %-18s expected a violation, explored %llu clean\n",
                  s.name.c_str(),
                  static_cast<unsigned long long>(out.explored));
      return false;
    }
    if (!replay_confirms(s, *out.violation, overrides)) {
      std::printf("FAIL %-18s violation found but seed did not replay it\n",
                  s.name.c_str());
      std::printf("     %s\n", out.violation->message.c_str());
      std::printf("     seed: %s\n", out.violation->seed.c_str());
      return false;
    }
    std::printf("ok   %-18s caught in %llu schedules (replayed): %s\n",
                s.name.c_str(), static_cast<unsigned long long>(out.explored),
                out.violation->message.c_str());
    std::printf("     replay: lsl_mc --scenario %s --replay %s\n",
                s.name.c_str(), out.violation->seed.c_str());
    return true;
  }
  if (out.violation) {
    std::printf("FAIL %-18s %s\n", s.name.c_str(),
                out.violation->message.c_str());
    std::printf("     replay: lsl_mc --scenario %s --replay %s\n",
                s.name.c_str(), out.violation->seed.c_str());
    return false;
  }
  std::printf("ok   %-18s %s: explored=%llu pruned=%llu\n", s.name.c_str(),
              cover, static_cast<unsigned long long>(out.explored),
              static_cast<unsigned long long>(out.pruned));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario;
  Options overrides;  // -1 / empty fields defer to each scenario's defaults
  bool census = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "lsl_mc: %s needs a value\n", flag);
        usage(stderr);
        std::exit(2);
      }
      return argv[++i];
    };
    auto need_count = [&](const char* flag) -> int {
      int n = 0;
      if (!lsl::cli::read_count("lsl_mc", flag, need_value(flag), &n)) {
        std::exit(2);
      }
      return n;
    };
    if (arg == "--list") {
      list_scenarios();
      return 0;
    } else if (arg == "--scenario") {
      scenario = need_value("--scenario");
    } else if (arg == "--budget") {
      overrides.max_schedules = need_count("--budget");
    } else if (arg == "--preempt") {
      overrides.preemption_bound = need_count("--preempt");
    } else if (arg == "--steps") {
      overrides.max_steps = need_count("--steps");
    } else if (arg == "--replay") {
      overrides.replay_seed = need_value("--replay");
    } else if (arg == "--census") {
      census = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "lsl_mc: unknown argument '%s'\n", arg.c_str());
      usage(stderr);
      return 2;
    }
  }

  if (!overrides.replay_seed.empty()) {
    if (scenario.empty()) {
      std::fprintf(stderr, "lsl_mc: --replay needs --scenario\n");
      return 2;
    }
    const ScenarioInfo* s = lsl::check::find_scenario(scenario);
    if (s == nullptr) {
      std::fprintf(stderr, "lsl_mc: unknown scenario '%s'\n",
                   scenario.c_str());
      return 2;
    }
    const Outcome out = lsl::check::run_scenario(scenario, overrides);
    if (out.violation) {
      std::printf("replayed %s: %s\n", scenario.c_str(),
                  out.violation->message.c_str());
      return 1;
    }
    std::printf("replayed %s: schedule ran clean\n", scenario.c_str());
    return 0;
  }

  std::vector<const ScenarioInfo*> to_run;
  if (!scenario.empty()) {
    const ScenarioInfo* s = lsl::check::find_scenario(scenario);
    if (s == nullptr) {
      std::fprintf(stderr, "lsl_mc: unknown scenario '%s'\n",
                   scenario.c_str());
      return 2;
    }
    to_run.push_back(s);
  } else {
    for (const ScenarioInfo& s : lsl::check::scenarios()) to_run.push_back(&s);
  }

  int failures = 0;
  for (const ScenarioInfo* s : to_run) {
    if (!run_one(*s, overrides, census)) ++failures;
  }
  if (!census) {
    std::printf("%d/%zu scenarios behaved as registered\n",
                static_cast<int>(to_run.size()) - failures, to_run.size());
  }
  return failures == 0 ? 0 : 1;
}
