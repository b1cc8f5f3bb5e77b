// Striping instruments.
//
// Flat `stripe.*` names plus a per-lane gauge family: one reassembling sink
// per striped session. exp::run_striped books the bundle from the sink
// core's lane reports (merge, duplicate, buffer and hole figures per offer);
// a Reassembler can also update it directly. Every name registered here must
// appear in docs/OBSERVABILITY.md — the `stripe-metrics-docs` rule of
// tools/lsl_lint enforces that for any `stripe.` string literal in this
// directory.
#pragma once

#include <cstdint>
#include <vector>

#include "metrics/metrics.hpp"

namespace lsl::stripe {

/// Pre-resolved striping instruments (see the metrics bundle pattern in
/// src/metrics/instruments.hpp: resolve once, hot path touches atomics).
struct StripeMetrics {
  /// `lanes` sizes the per-lane gauge family (`stripe.lane<i>.bps`).
  StripeMetrics(metrics::Registry& reg, std::uint16_t lanes);

  metrics::Counter* bytes_merged;     ///< fresh bytes accepted into the merge
  metrics::Counter* bytes_duplicate;  ///< redundant/overlap bytes dropped
  metrics::Counter* stripes_lost;     ///< lanes that died mid-transfer
  metrics::Counter* stripes_recovered;  ///< lanes re-striped onto a new chain
  metrics::Counter* sessions_completed; ///< striped sessions fully merged
  metrics::Gauge* reassembly_buffer_bytes;  ///< parked out-of-order bytes
  metrics::Gauge* holes_outstanding;        ///< coverage gaps below max seen
  std::vector<metrics::Gauge*> lane_bps;    ///< per-lane delivery rate

  /// Record one lane's smoothed delivery rate (bits/sec of lane progress).
  void on_lane_rate(std::uint16_t lane, double bps) {
    if (lane < lane_bps.size()) lane_bps[lane]->set(bps);
  }
};

}  // namespace lsl::stripe
