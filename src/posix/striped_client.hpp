// Striped real-socket source: one LSL session over N depot chains at once.
//
// StripedPosixSource splits a session's byte stream into lanes with a
// stripe::StripePlan and runs one PosixSource per lane, each dialing its
// own depot route with a version-3 header (shared session id, per-lane
// StripeInfo) so the PosixSinkServer groups the connections into a single
// reassembly and answers every lane with one end-to-end status byte when
// the merged stream's MD5 checks out.
//
// What a lane carries and what a lost lane becomes are the source core's
// decisions (core::LaneSet, src/lsl/source_core.hpp), shared with the
// simulator's driver (src/exp/striped.cpp): with plan redundancy the
// surviving lanes already cover the dead lane's logical stripes and nothing
// is re-sent; without it the lane continues on the next spare route after a
// delay timed on the event loop. This adapter keeps the spare list and
// the timers.
// Unlike the simulator — which reads the sink's lane progress directly —
// this client only observes first-hop ACKs, which a crashed depot may have
// issued for bytes it never relayed, so a continuation starts at lane
// floor 0 and lets the reassembler drop the duplicates (docs/STRIPING.md
// discusses the trade).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "posix/client.hpp"

namespace lsl::posix {

/// Striped source configuration.
struct StripedPosixSourceConfig {
  /// One depot route per lane (each usually a single depot; may be empty
  /// for a direct lane). Lane count = lane_routes.size(), in [2, 16].
  std::vector<std::vector<InetAddress>> lane_routes;
  /// Replacement routes consumed in order when a lane must re-stripe.
  std::vector<std::vector<InetAddress>> spare_routes;
  InetAddress destination;
  std::uint64_t payload_bytes = 0;
  std::uint64_t payload_seed = 1;
  /// Round-robin cell size of the stripe plan.
  std::uint32_t chunk = 64 * 1024;
  /// Extra carriers per logical stripe (loss masking; see stripe/plan.hpp).
  std::uint8_t redundancy = 0;
  /// Re-stripe budget and pacing for lanes redundancy cannot absorb.
  std::uint32_t max_restripes = 4;
  std::chrono::milliseconds restripe_delay{50};
  std::chrono::milliseconds dial_timeout{0};
  std::uint64_t trace_id = 0;
  /// Session id override: callers running several striped sessions from
  /// one seed (lsl_load slots) must keep them in distinct sink groups.
  /// Unset derives one id deterministically from payload_seed.
  std::optional<core::SessionId> session;
};

/// Streams one striped LSL session; on_done(ok) fires once when the sink
/// confirmed the merged stream (ok) or recovery ran out of options.
class StripedPosixSource {
 public:
  StripedPosixSource(engine::EpollEngine& loop,
                     StripedPosixSourceConfig config);

  ~StripedPosixSource() { cancel_restripes(); }

  StripedPosixSource(const StripedPosixSource&) = delete;
  StripedPosixSource& operator=(const StripedPosixSource&) = delete;

  void start();

  std::function<void(bool ok)> on_done;

  bool finished() const { return finished_; }
  std::uint32_t stripes_lost() const { return set_.lost(); }
  std::uint32_t stripes_recovered() const { return set_.recovered(); }
  /// Bytes handed to replacement lanes (0 when redundancy absorbed every
  /// death).
  std::uint64_t retransmitted_bytes() const { return set_.retransmitted(); }

 private:
  void launch_lane(std::size_t li, const core::SourcePlan& plan);
  void on_lane_done(std::size_t li, bool ok);
  void maybe_finish();
  void fail_all();
  void cancel_restripes();

  engine::EpollEngine& loop_;
  StripedPosixSourceConfig config_;
  core::LaneSet set_;
  /// Lane li rides config_.lane_routes[li] over sources_[li].
  std::vector<std::unique_ptr<PosixSource>> sources_;
  /// One timer per re-stripe: lane relaunch happens on the event loop
  /// after restripe_delay, never inline in the failure callback.
  std::vector<util::EventId> restripes_;
  bool session_ok_ = false;
  bool finished_ = false;
};

}  // namespace lsl::posix
