// Endpoint applications for simulated transfers.
//
//  * SourceApp — the sending end system: opens the first-hop connection
//    (directly to the sink for plain TCP, or to the first depot for LSL)
//    and writes what the source core (src/lsl/source_core.hpp) frames:
//    the LSL header, the payload and, in real-payload mode, the MD5
//    digest trailer; then closes.
//  * SinkApp / SinkServer — the receiving end system: accepts connections,
//    feeds their bytes to the sink core (src/lsl/sink_core.hpp), which
//    parses the header and, in real mode, verifies payload and digest, and
//    timestamps completion. Transfer throughput
//    in every reproduced figure is (payload bytes) / (sink completion time -
//    source start time), matching the paper's host-to-host wall-clock
//    measurement that includes connection setup and depot overheads.
//  * ParallelSource / ParallelSinkServer — the PSockets-style striped-TCP
//    baseline discussed in the paper's related work (§II), used by the
//    ablation benches.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "lsl/directory.hpp"
#include "lsl/payload.hpp"
#include "lsl/sink_core.hpp"
#include "lsl/source_core.hpp"
#include "lsl/wire.hpp"
#include "tcp/stack.hpp"
#include "util/units.hpp"

namespace lsl::core {

/// Configuration of one sending application: the session (SourcePlan,
/// src/lsl/source_core.hpp) plus the simulator's reconnect policy.
struct SourceConfig : SourcePlan {
  /// Delay before re-dialing a lost connection at ack floor `floor` (models
  /// re-association), or nullopt to give up: gave_up() turns true. run_chaos
  /// plugs in a fault::RoutePolicy's verdicts; core stays free of them.
  std::function<std::optional<util::SimDuration>(std::uint64_t floor)>
      reconnect_backoff = [](std::uint64_t) { return util::millis(50); };
};

/// The sending end system: the simulator's I/O adapter on the source core.
/// It keeps the sim socket, virtual mode and the directory publish.
class SourceApp : private SourceHost {
 public:
  /// `first_hop` is the transport endpoint this app dials: the sink itself
  /// for direct TCP, or the first depot of the route for LSL. `dir` may be
  /// null for real-payload transfers.
  SourceApp(tcp::TcpStack& stack, sim::Endpoint first_hop, SourceConfig config,
            SessionDirectory* dir);

  SourceApp(const SourceApp&) = delete;
  SourceApp& operator=(const SourceApp&) = delete;

  /// Initiate the connection; records start_time.
  void start();

  /// Fires when the source has written everything and closed its socket
  /// (a resumable session: once the peer closed too), or gave up.
  std::function<void()> on_finished;

  bool finished() const { return core_.finished(); }
  util::SimTime start_time() const { return start_time_; }
  tcp::TcpSocket* socket() { return socket_; }

  /// Abort the current connection (simulated roaming / address change).
  /// With `resumable`, the source reconnects and resumes automatically.
  void simulate_disconnect();

  /// Proactive mid-transfer re-selection (health plane, docs/HEALTH.md):
  /// abandon the current connection — or the reconnect it is waiting for —
  /// and continue the session through `new_first_hop` / `hops` (the full
  /// new route, first hop included), retransmitting from `floor`: the
  /// sink's acknowledged frontier. The replacement connection carries
  /// kFlagMigrate (resume_offset = floor, payload_length = remaining),
  /// which fresh depots relay as an ordinary session and the sink splices
  /// via its SessionLedger. Returns false (and does nothing) unless the
  /// session is resumable, unfinished, and `floor` is short of the payload.
  bool migrate(sim::Endpoint new_first_hop, std::vector<HopAddress> hops,
               std::uint64_t floor);

  /// Number of successful reconnect-and-resume cycles so far.
  std::size_t resumes() const { return core_.resumes(); }

  /// Number of proactive migrations issued so far.
  std::size_t migrations() const { return core_.migrations(); }

  /// True when reconnect_backoff gave up and the source abandoned the
  /// transfer (finished() is also true then).
  bool gave_up() const { return core_.gave_up(); }

 private:
  void pump();
  // SourceHost
  void dial() override;
  void hang_up() override;
  std::optional<std::int64_t> backoff() override;
  void wait(std::int64_t delay) override;
  bool confirms() const override { return false; }
  void end(bool ok) override;

  tcp::TcpStack& stack_;
  sim::Endpoint first_hop_;
  SessionDirectory* dir_;
  std::function<std::optional<util::SimDuration>(std::uint64_t)>
      reconnect_backoff_;
  SourceCore core_;
  tcp::TcpSocket* socket_ = nullptr;
  /// Bumped on every hang-up so a pending reconnect event from an
  /// abandoned chain cannot open a stale connection.
  std::uint64_t epoch_ = 0;
  util::SimTime start_time_ = 0;
};

/// Configuration of the receiving application.
struct SinkConfig {
  bool expect_header = false;   ///< parse an LSL header before the payload
  bool verify_payload = false;  ///< real mode: check content + MD5 trailer
  std::uint64_t payload_seed = 1;
  /// Cross-connection reassembly for migrated sessions (health plane).
  /// When set, bounded, digest-free, unstriped sessions flow into the
  /// ledger, which then owns their stream-level verification and
  /// completion (a migrate connection is only a stream fragment). Null —
  /// the default — changes nothing.
  SessionLedger* ledger = nullptr;
};

/// One accepted receiving connection: the simulator's I/O adapter on the
/// sink core (src/lsl/sink_core.hpp). Real-payload streams are decided
/// there; virtual-mode streams take their header from the directory and
/// count bytes.
class SinkApp {
 public:
  SinkApp(tcp::TcpSocket* socket, SinkCore& core, bool expect_header,
          SessionDirectory* dir);

  SinkApp(const SinkApp&) = delete;
  SinkApp& operator=(const SinkApp&) = delete;

  /// Fires exactly once when the stream has fully arrived (EOF) and, in
  /// verifying mode, the digest has been checked. A refused stream (bad
  /// header, ledger gap) is aborted instead and never fires it.
  std::function<void(SinkApp&)> on_complete;

  util::SimTime complete_time() const { return complete_time_; }
  /// Payload bytes received (headers and trailers excluded).
  std::uint64_t payload_received() const { return stream_.payload_received; }
  /// The sink core's verdict: exact length, content and MD5 trailer (real
  /// mode); always true in virtual mode, which carries no bytes to check.
  bool verified() const { return stream_.ok; }

 private:
  void on_readable();
  void consume_real();
  void consume_virtual();
  void finish();

  tcp::TcpSocket* socket_;
  SinkCore& core_;
  SinkStream stream_;
  std::uint64_t header_virtual_left_ = 0;
  bool complete_ = false;
  util::SimTime complete_time_ = 0;
};

/// Listens on a port and runs a SinkApp per accepted connection; owns the
/// sink core they share.
class SinkServer : private SinkHost {
 public:
  SinkServer(tcp::TcpStack& stack, sim::PortNum port, SinkConfig config,
             SessionDirectory* dir);

  /// Forwarded from every SinkApp.
  std::function<void(SinkApp&)> on_complete;
  /// Fires when a ledger session or a stripe group resolves.
  std::function<void(const SinkVerdict&)> on_verdict;

  /// The shared core (its on_lane hook feeds striped runs).
  SinkCore& core() { return core_; }

 private:
  std::int64_t now() const override { return stack_.sim().now(); }
  void on_stream_verdict(const SinkVerdict& v) override {
    if (on_verdict) on_verdict(v);
  }

  tcp::TcpStack& stack_;
  SinkCore core_;
  std::vector<std::unique_ptr<SinkApp>> sinks_;
};

/// PSockets-style striped sender: `streams` parallel plain-TCP connections,
/// each carrying an equal share of the payload.
class ParallelSource {
 public:
  ParallelSource(tcp::TcpStack& stack, sim::Endpoint sink,
                 std::uint64_t payload_bytes, std::size_t streams);

  void start();
  util::SimTime start_time() const { return start_time_; }

 private:
  std::vector<std::unique_ptr<SourceApp>> sources_;
  util::SimTime start_time_ = 0;
};

/// Receives a striped transfer; completes when every stream has finished.
class ParallelSinkServer {
 public:
  ParallelSinkServer(tcp::TcpStack& stack, sim::PortNum port,
                     std::size_t streams);

  /// Fires once, when the last stream completes.
  std::function<void()> on_complete;

  util::SimTime complete_time() const { return complete_time_; }

 private:
  std::unique_ptr<SinkServer> server_;
  std::size_t expected_;
  std::size_t completed_ = 0;
  util::SimTime complete_time_ = 0;
};

}  // namespace lsl::core
