// Chaos experiments: scripted faults against a cascaded chain transfer,
// recovered by the policy layer.
//
// run_chaos builds an N-depot chain (exp::build_chain), arms a
// fault::FaultInjector with a scripted FaultPlan, and then drives transfer
// *attempts* under one fault::RoutePolicy: when an attempt fails (depot
// crash, refused accept, end-to-end verification mismatch), the harness
// backs off per its verdict, asks it for the best route excluding crashed
// depots, and launches a fresh session. Resumable attempts also survive
// sublink resets *within* a session via kFlagResume (depot park + source
// reconnect, one per ack floor), and move when the chain cannot resume.
//
// Everything is deterministic under a fixed seed — faults, backoff jitter,
// TCP timing — so two identical runs export byte-identical metrics; the
// chaos test tier (tests/chaos_test.cpp) asserts exactly that.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/scenarios.hpp"
#include "fault/policy.hpp"
#include "fault/spec.hpp"
#include "health/board.hpp"
#include "health/migration.hpp"
#include "metrics/metrics.hpp"

namespace lsl::exp {

/// Health-plane knobs for a chaos run. Disabled (the default) schedules
/// nothing and allocates nothing: same-seed metric exports stay
/// byte-identical with and without this struct present — the repository's
/// determinism invariant (tests/health_test.cpp pins it).
struct ChaosHealth {
  /// Master switch for the whole plane (board, sampling, migration).
  bool enabled = false;
  health::HealthConfig board;
  /// Mid-transfer re-selection; `migration.enabled` still gates it inside
  /// an enabled plane, so scoring can run with migration off (admission
  /// only).
  health::MigrationConfig migration;
  /// Depot scorecard sampling period (simulated time). Each tick folds
  /// every depot's relay-rate delta, stall/pressure counters, and
  /// injector-known deaths into the board, then consults the
  /// MigrationPolicy for the live attempt.
  util::SimDuration probe_interval = util::millis(100);
};

/// Parameters of one chaos run.
struct ChaosParams {
  /// Topology and depot tuning (set depot.resume_grace for reset-style
  /// scenarios).
  ChainParams chain;
  std::uint64_t bytes = 16 * util::kMiB;
  std::uint64_t seed = 1;
  /// When set, the run registers per-depot `depot.<i>.*` instruments here,
  /// plus `fault.*` / `recovery.*` (and `health.*` with the health plane).
  /// Must outlive the call.
  metrics::Registry* metrics = nullptr;
  fault::FaultPlan plan;
  fault::RetryConfig retry;
  /// Resumable attempts survive mid-stream connection resets in-session
  /// (kFlagResume; no digest trailer — content is still verified against
  /// the seeded generator). Non-resumable attempts carry the full MD5
  /// trailer and recover by policy-driven retransfer.
  bool resumable_attempts = false;
  /// Adaptive depot health plane (requires resumable_attempts when
  /// migration is enabled — migration rides the resume machinery).
  ChaosHealth health;
};

/// Outcome of one chaos run.
struct ChaosResult {
  bool completed = false;  ///< a sink received the full payload
  bool verified = false;   ///< ... and it checked out end to end
  /// Budget ticks the RoutePolicy granted: in-session reconnects plus
  /// moves (retransfers, and ticks that found no route and waited).
  std::uint32_t attempts = 0;
  std::uint32_t reroutes = 0;       ///< attempts that switched routes
  std::size_t resumes = 0;          ///< in-session resume cycles (all attempts)
  std::uint64_t faults_injected = 0;
  /// Why rerouting gave up, when it did (kNone otherwise) — the distinct
  /// "no alternative route" failure the policy layer must surface.
  fault::RerouteError reroute_error = fault::RerouteError::kNone;
  std::vector<std::string> final_route;  ///< depot names of the last attempt
  double seconds = 0.0;  ///< source start (first attempt) -> verified sink
  double mbps = 0.0;
  std::uint64_t retransmits = 0;  ///< every connection of every attempt
  std::uint64_t events = 0;       ///< simulator events executed
  // --- Health plane (all zero when ChaosParams::health is disabled) ------
  std::size_t migrations = 0;  ///< proactive mid-transfer re-selections
  /// Stream offset the first migration resumed from (the sink's exact
  /// acknowledged frontier at that instant); 0 when no migration happened.
  std::uint64_t migration_floor = 0;
  /// Health mode: the ledger-stitched stream's MD5 matched the seeded
  /// generator's digest over the full payload (false when not health mode).
  bool stream_digest_ok = false;
  std::uint64_t health_transitions = 0;  ///< board state changes observed
};

/// Run one transfer under the fault plan; recover per the policies.
ChaosResult run_chaos(const ChaosParams& params);

}  // namespace lsl::exp
