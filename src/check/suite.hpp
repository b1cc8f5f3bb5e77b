// The named model-check suite: scenarios over the ModelSync instantiations
// of the riskiest concurrent protocols (buf::ChunkPool+MemoryBudget and the
// shared budget, span::FlightRecorder, the engine's post queue and drain
// gate, metrics registration, the health board), plus deliberately seeded
// bug fixtures that prove the checker catches the classes of bug it exists
// for. tools/lsl_mc runs the suite; tests/mcheck_test.cpp pins its
// outcomes and census determinism.
#pragma once

#include <string>
#include <vector>

#include "check/sched.hpp"

namespace lsl::check {

/// One registered scenario.
struct ScenarioInfo {
  std::string name;
  std::string subsystem;    ///< buf | engine | span | metrics | health | check
  std::string description;
  /// Bug fixtures: the checker MUST find a violation (a clean pass is the
  /// failure). Pass scenarios: any violation is a real protocol bug.
  bool expect_violation = false;
  /// Per-scenario schedule budgets (fully resolved, no -1 sentinels).
  Options defaults;
};

/// Every registered scenario, in suite order.
const std::vector<ScenarioInfo>& scenarios();

/// nullptr when unknown.
const ScenarioInfo* find_scenario(const std::string& name);

/// Explore one scenario; `overrides` wins field-by-field over the
/// scenario's default budgets (-1 / empty fields inherit).
Outcome run_scenario(const std::string& name, const Options& overrides);

}  // namespace lsl::check
