// Striped multipath experiments: one session over N disjoint depot chains.
//
// run_striped stands on the braid exp::build_braid makes — `paths`
// parallel single-depot chains between a shared source and sink, with the
// hosts and depots exp::Hosts starts on it — and moves one session over
// `stripes` of them at once: a stripe::StripePlan splits the byte stream
// into lanes, each lane rides the depot chain stripe::disjoint_routes
// picked for it, every lane connection carries a version-3 wire header
// (src/lsl/wire.hpp) mapping its bytes back into the merged stream, and the
// sink core (src/lsl/sink_core.hpp) merges the lanes, verifies content
// against the seeded generator, and checks the shipped MD5 trailer against
// the digest of the reassembled stream.
//
// Faults compose with the existing policy machinery: a scripted depot
// crash (fault::FaultPlan) kills one lane mid-transfer; with stripe
// redundancy the surviving lanes already cover the dead lane's logical
// stripes and the run completes with zero replacement bytes; without
// redundancy run_striped backs off per fault::RoutePolicy's verdict, asks
// the same policy for a spare disjoint chain, and re-stripes the
// lane's undelivered suffix onto it (wire resume_offset carries the
// lane-relative skip). Deterministic under a fixed seed, like run_chaos:
// same-seed runs export byte-identical metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/policy.hpp"
#include "fault/spec.hpp"
#include "metrics/metrics.hpp"
#include "util/units.hpp"

namespace lsl::exp {

/// Parameters of one striped run.
struct StripedParams {
  /// Disjoint single-depot chains in the braid (>= stripes).
  std::size_t paths = 4;
  /// Lanes the session is striped over (1 = degenerate single chain).
  std::uint16_t stripes = 2;
  /// Extra carriers per logical stripe: any `redundancy` lane deaths leave
  /// full coverage (round-robin mode only).
  std::uint8_t redundancy = 0;
  /// Contiguous ranges sized by the RouteSelector's predicted lane speeds
  /// instead of byte-interleaved 64 KiB round-robin cells.
  bool weighted = false;

  std::uint64_t bytes = 8 * util::kMiB;
  std::uint64_t seed = 1;

  /// When set, the run registers `stripe.*` instruments (and the per-lane
  /// `stripe.lane<i>.bps` gauges) here. Must outlive the call.
  metrics::Registry* metrics = nullptr;

  /// Scripted faults (depot crashes kill lanes) and the restripe backoff.
  fault::FaultPlan plan;
  fault::RetryConfig retry;
};

/// Outcome of one striped run.
struct StripedResult {
  bool completed = false;  ///< the sink merged every byte of the stream
  bool verified = false;   ///< ... content and MD5 trailer both checked out
  std::uint16_t lanes = 0;
  std::uint32_t stripes_lost = 0;       ///< lanes that died mid-transfer
  std::uint32_t stripes_recovered = 0;  ///< lanes re-striped onto spare chains
  /// Redundant/overlapping bytes the reassembler dropped.
  std::uint64_t duplicate_bytes = 0;
  /// Bytes carried by replacement lanes — 0 when redundancy absorbed every
  /// death (the issue's "no retransmission" acceptance bar).
  std::uint64_t retransmitted_bytes = 0;
  std::uint32_t attempts = 0;  ///< restripe ticks granted by RoutePolicy
  std::uint64_t faults_injected = 0;
  std::vector<std::string> lane_routes;  ///< final depot of each lane
  double seconds = 0.0;  ///< first source start -> merge completion
  double mbps = 0.0;
  std::uint64_t retransmits = 0;  ///< every connection of every lane
  std::uint64_t events = 0;       ///< simulator events executed
};

/// Run one striped transfer; recover lane deaths per the policies.
StripedResult run_striped(const StripedParams& params);

}  // namespace lsl::exp
