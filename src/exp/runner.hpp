// The experiment runner: executes one transfer (direct TCP, LSL through the
// depot, or PSockets-style parallel streams) over a scenario and reports the
// paper's measurement quantities — host-to-host wall-clock throughput
// (connection setup and depot overheads included), per-connection
// sender-side traces, ACK-derived RTTs and retransmission counts.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "exp/scenarios.hpp"
#include "lsl/apps.hpp"
#include "lsl/depot.hpp"
#include "metrics/metrics.hpp"
#include "trace/analysis.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace lsl::exp {

/// How the payload travels.
enum class Mode {
  kDirectTcp,   ///< one end-to-end TCP connection (the baseline)
  kLsl,         ///< cascaded TCP through the scenario's depot(s)
  kParallelTcp, ///< N striped TCP connections (PSockets baseline)
};

/// Per-run knobs.
struct RunConfig {
  Mode mode = Mode::kDirectTcp;
  std::uint64_t bytes = util::kMiB;
  std::uint64_t seed = 1;
  bool capture_traces = false;   ///< record sender-side packet traces
  bool carry_data = false;       ///< real payload bytes + MD5 end-to-end
  std::size_t parallel_streams = 4;
  tcp::TcpConfig tcp;              ///< applied to every stack
  /// Depot tuning; when unset, derived from the scenario's PathParams
  /// (depot_relay_rate / depot_relay_buffer / depot_wakeup).
  std::optional<core::DepotConfig> depot_override;
  /// Park window for sessions whose upstream died awaiting a kFlagResume
  /// reconnect, applied to every depot the run builds (also on top of
  /// depot_override). The simulator's default is 0 = resumption off — the
  /// same default the real daemon's `lsd --resume-grace` knob documents in
  /// docs/PROTOCOL.md §6.
  util::SimDuration resume_grace = 0;
  /// When set, the run registers live instruments here: per-connection TCP
  /// metrics under `tcp.<label>.*`, depot metrics under `depot.1.*`, and —
  /// with capture_traces — a trace::analysis bridge under `trace.<label>.*`.
  /// Must outlive the call.
  metrics::Registry* metrics = nullptr;
  /// Hard simulated-time ceiling; a run that exceeds it reports failure.
  util::SimDuration deadline = 4ull * 3600 * util::kSecond;
};

/// Everything measured from one transfer.
struct TransferResult {
  bool completed = false;
  std::uint64_t bytes = 0;
  double seconds = 0.0;         ///< source start -> sink completion
  double mbps = 0.0;            ///< payload throughput over `seconds`
  bool verified = true;         ///< real mode: content + MD5 ok
  std::uint64_t retransmits = 0;  ///< summed across sending sockets
  std::uint64_t timeouts = 0;     ///< RTO events across sending sockets
  std::uint64_t drops_wire = 0;   ///< loss-model drops, all links
  std::uint64_t drops_queue = 0;  ///< drop-tail discards, all links
  std::uint64_t events = 0;       ///< simulator events executed

  // Sender-side traces (when capture_traces): index 0 is the end-to-end
  // connection in direct mode, or sublink 1 in LSL mode; subsequent entries
  // are each depot's downstream sublink in path order.
  std::vector<std::unique_ptr<trace::TraceRecorder>> traces;

  /// Average ACK-derived RTT (ms) of traces[i]; empty without traces.
  std::vector<double> rtt_ms;
  /// Retransmission count per traced connection.
  std::vector<std::uint64_t> retx_per_link;
};

/// Run a single transfer over a freshly built scenario.
TransferResult run_transfer(const PathParams& path, const RunConfig& cfg);

/// Run `iterations` transfers with seeds seed, seed+1, ... and return each
/// result (the paper runs 10 iterations per size, 120 for the OSU study).
std::vector<TransferResult> run_many(const PathParams& path,
                                     const RunConfig& cfg,
                                     std::size_t iterations);

/// Mean throughput (Mbit/s) over completed runs; 0 when none completed.
double mean_mbps(const std::vector<TransferResult>& results);

}  // namespace lsl::exp
