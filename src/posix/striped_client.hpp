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
// is re-sent; without it a fault::RoutePolicy over the spare routes decides
// the backoff and which spare the lane continues on, skipping every route
// a lane rode or rides. This adapter keeps the timers.
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
#include <set>
#include <string>
#include <vector>

#include "fault/policy.hpp"
#include "posix/client.hpp"

namespace lsl::posix {

/// Striped source configuration.
struct StripedPosixSourceConfig {
  /// One depot route per lane (each usually a single depot; may be empty
  /// for a direct lane). Lane count = lane_routes.size(), in [2, 16].
  std::vector<std::vector<InetAddress>> lane_routes;
  /// Replacement routes for lanes that must re-stripe, tried in order.
  std::vector<std::vector<InetAddress>> spare_routes;
  InetAddress destination;
  std::uint64_t payload_bytes = 0;
  std::uint64_t payload_seed = 1;
  /// Round-robin cell size of the stripe plan.
  std::uint32_t chunk = 64 * 1024;
  /// Extra carriers per logical stripe (loss masking; see stripe/plan.hpp).
  std::uint8_t redundancy = 0;
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
  /// Carry out the policy's verdict on lost lane `li`: re-stripe or fail.
  void restripe(std::size_t li, const fault::Verdict& v);
  void maybe_finish();
  void fail_all();
  void cancel_restripes();

  engine::EpollEngine& loop_;
  StripedPosixSourceConfig config_;
  core::LaneSet set_;
  fault::RoutePolicy policy_;  ///< over the spare routes
  /// Depots of every route a lane rode (dead or in use): no spare's.
  std::set<std::string> rode_;
  /// Lane li rides config_.lane_routes[li] over sources_[li].
  std::vector<std::unique_ptr<PosixSource>> sources_;
  /// One timer per re-stripe: lane relaunch happens on the event loop
  /// after the policy's backoff, never inline in the failure callback.
  std::vector<util::EventId> restripes_;
  bool session_ok_ = false;
  bool finished_ = false;
};

}  // namespace lsl::posix
