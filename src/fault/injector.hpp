// The simulator-side fault injector.
//
// Takes a parsed FaultPlan and applies it to a live topology through the
// hooks the stack already exposes: sim::Link::set_loss_rate (blackhole /
// flap), core::DepotApp::crash/restart/set_accept_drops/set_stalled/
// inject_upstream_reset, and core::SourceApp::simulate_disconnect.
// Time-keyed events are scheduled on the simulator's own EventQueue, so
// they interleave with protocol events in deterministic order; byte-keyed
// events ride DepotApp::on_progress, which is itself dispatched through a
// zero-delay simulator event. Nothing here draws randomness — a fixed
// (plan, seed) pair replays bit-for-bit, which is what lets the chaos
// tests assert byte-identical metrics exports across runs.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "fault/fault_metrics.hpp"
#include "fault/spec.hpp"
#include "lsl/apps.hpp"
#include "lsl/depot.hpp"
#include "sim/network.hpp"

namespace lsl::fault {

/// Applies a FaultPlan to registered depots/links/sources.
class FaultInjector {
 public:
  FaultInjector(sim::Network& net, FaultPlan plan,
                FaultMetrics* metrics = nullptr)
      : net_(net), plan_(std::move(plan)), metrics_(metrics) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Register the depot application running on host `name` (the name used
  /// in crash:/restart:/syndrop:/reset:/slow: events).
  void register_depot(const std::string& name, core::DepotApp* depot);

  /// Register the sending application (disconnect: events).
  void register_source(core::SourceApp* source);

  /// Schedule every time-keyed event and arm byte-offset triggers. Call
  /// once, after registration and before the transfer starts. Events whose
  /// target was never registered are skipped (and not counted injected).
  void arm();

  /// Record an injection applied outside the injector (the source-side
  /// corrupt fault lives in SourceConfig; see exp::run_chaos).
  void note_injected(FaultKind kind);

  /// Depots currently crashed — the dead set RoutePolicy::route excludes.
  const std::set<std::string>& dead_depots() const { return dead_; }

  /// Faults applied so far.
  std::uint64_t injected() const { return injected_; }

  const FaultPlan& plan() const { return plan_; }

 private:
  void apply(const FaultEvent& ev);
  /// Take both directions of "a-b" down (loss 1.0) or restore them.
  void set_link_down(const std::string& spec, bool down);
  void on_depot_progress(const std::string& name, std::uint64_t bytes);
  double now_seconds() const;

  sim::Network& net_;
  FaultPlan plan_;
  FaultMetrics* metrics_;
  std::map<std::string, core::DepotApp*> depots_;
  core::SourceApp* source_ = nullptr;
  /// Byte-keyed events per depot, pending until progress passes at_bytes.
  std::map<std::string, std::vector<FaultEvent>> pending_bytes_;
  /// Saved per-direction loss rates of links taken down, keyed by "a-b".
  std::map<std::string, std::pair<double, double>> saved_loss_;
  std::set<std::string> dead_;
  std::uint64_t injected_ = 0;
  bool armed_ = false;
};

}  // namespace lsl::fault
