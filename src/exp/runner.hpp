// The experiment runner: executes one transfer (direct TCP, LSL through the
// scenario's depots, or PSockets-style parallel streams) over a scenario
// (one of the paper's paths or an N-depot chain) and reports the paper's
// measurement quantities — host-to-host wall-clock throughput
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
  /// Depot tuning; when unset, every depot takes the scenario's.
  std::optional<core::DepotConfig> depot_override;
  /// When set, the run registers live instruments here: per-connection TCP
  /// metrics under `tcp.<label>.*`, per-depot metrics under `depot.<i>.*`,
  /// and — with capture_traces — a trace::analysis bridge under
  /// `trace.<label>.*`. Must outlive the call.
  metrics::Registry* metrics = nullptr;
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

/// Run a single transfer over the scenario `build` makes from cfg.seed.
/// Connection labels follow the path: "direct", or "sublink1" from the
/// source and "sublink<i+1>" downstream of depot i. LSL mode needs at least
/// one depot.
TransferResult run_transfer(const ScenarioBuilder& build, const RunConfig& cfg);
/// The same over one of the paper's paths.
TransferResult run_transfer(const PathParams& path, const RunConfig& cfg);

/// Run `iterations` transfers with seeds seed, seed+1, ... and return each
/// result (the paper runs 10 iterations per size, 120 for the OSU study).
std::vector<TransferResult> run_many(const ScenarioBuilder& build,
                                     const RunConfig& cfg,
                                     std::size_t iterations);
std::vector<TransferResult> run_many(const PathParams& path,
                                     const RunConfig& cfg,
                                     std::size_t iterations);

/// Mean throughput (Mbit/s) over completed runs; 0 when none completed.
double mean_mbps(const std::vector<TransferResult>& results);

}  // namespace lsl::exp
