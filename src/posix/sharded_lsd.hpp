// ShardedLsd: one forwarding daemon per core, one port, one budget.
//
// A posix::Lsd is a single epoll thread — correct, but it leaves every
// other core idle (the paper's §VII scalability concern, restated for
// 2020s hardware). ShardedLsd launches N shards, each a complete
// single-threaded daemon on its own EpollEngine and OS thread, all bound
// to the *same* TCP port via SO_REUSEPORT so the kernel load-balances
// accepted sessions across them. It is the runtime every lsd_relay daemon
// runs, N = 1 included. Nothing on the relay fast path is shared:
// each shard owns its ChunkPool freelist, its engine (whose timers carry
// the shard's deadlines), its LsdStats counters, and its
// `lsd.shard<i>.*` metrics bundle. What IS
// shared is exactly the set of protocols PR 7 model-checked:
//
//   * byte accounting — every shard pool draws on one buf::SharedBudget,
//     so the operator's memory ceiling and the admission-pressure
//     hysteresis are process-wide (scenario "buf_shared_budget");
//   * work injection — closures posted to a shard's PostQueue, then
//     EpollEngine::wakeup() (scenario "engine_post_queue");
//   * drain — a DrainGate rendezvous: request once, every shard finishes
//     its in-flight sessions and arrives once (scenario
//     "engine_drain_gate");
//   * stats export — per-shard StatsBoards (counters and drain report)
//     published after every dispatch round and summed by readers, so
//     `stats`/`health`/drain-report aggregation never takes a shard lock.
//
// Park/salvage/resume stays shard-local: a kFlagResume reconnect lands on
// a kernel-chosen shard, and one that misses its parked session is refused
// exactly like an unknown session — the source's fresh-transfer fallback
// covers it (docs/ENGINE.md discusses the trade).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "buf/pool.hpp"
#include "buf/shared_budget.hpp"
#include "engine/drain_gate.hpp"
#include "engine/epoll_engine.hpp"
#include "engine/post_queue.hpp"
#include "engine/shard_thread.hpp"
#include "engine/stats_board.hpp"
#include "fault/fault_metrics.hpp"
#include "fault/spec.hpp"
#include "health/board.hpp"
#include "live/liveness.hpp"
#include "metrics/instruments.hpp"
#include "posix/fault_driver.hpp"
#include "posix/lsd.hpp"

namespace lsl::posix {

/// Sharded-runtime configuration: the per-shard daemon template plus the
/// fleet-level knobs.
struct ShardedLsdConfig {
  /// Template every shard daemon is built from. `bind.port` 0 picks one
  /// ephemeral port that all shards then share; `pool` sizes both the
  /// per-shard chunk geometry and the single process-wide budget;
  /// `shared_pool` must be null (the runtime builds the per-shard pools).
  LsdConfig base;
  /// Number of shards (>= 1); one acceptor + event loop + OS thread each.
  int shards = 2;
  /// Optional: per-shard `lsd.shard<i>.*` / `loop.shard<i>.*` bundles are
  /// registered here (must outlive the runtime), and the depot's one
  /// `fault.*` bundle when `fault_plan` is set.
  metrics::Registry* registry = nullptr;
  /// Optional shared tracer (the flight recorder is multi-writer safe;
  /// must outlive the runtime).
  span::Tracer* tracer = nullptr;
  /// Optional fault plan for the depot as a whole: one LsdFaultDriver on
  /// shard 0's thread fires each event once, turns its knob on every
  /// shard, and keys byte offsets on the shards' summed relayed bytes.
  /// Events due at once (`at=0s`) have applied when the constructor
  /// returns.
  std::optional<fault::FaultPlan> fault_plan;
  /// Build a per-shard HealthBoard and attach it to each shard daemon.
  /// The admin `health`/`gossip` responses then carry one fleet row set —
  /// the pessimistic cross-shard merge (health::merge_rows: worst state,
  /// minimum score, summed counters). Off by default: an unattached fleet
  /// reports byte-identical output to the pre-health daemon.
  bool health_plane = false;
  /// Knobs for the per-shard boards when `health_plane` is set.
  health::HealthConfig health;
};

/// The `health` snapshot the admin endpoint reports: counters and
/// relay census summed over the shards.
struct AdminHealth {
  std::uint16_t port = 0;
  std::size_t live_relays = 0;
  std::size_t parked_relays = 0;
  bool draining = false;
  bool drain_done = false;
  int shards = 1;
  /// Live relays that are lanes of striped (wire v3) sessions; 0 omits
  /// the field from the health JSON.
  std::size_t stripes = 0;
  LsdStats stats;
  /// Per-depot scorecard rows (next hops the shards have dialed, merged
  /// pessimistically across shards by health::merge_rows). Empty — and
  /// omitted from the health JSON — without a health plane. Also what
  /// the admin `gossip` command serves.
  std::vector<health::DepotHealth> depots;
};

/// N SO_REUSEPORT shard daemons behind one port. Threads start in the
/// constructor and are joined in the destructor.
class ShardedLsd {
 public:
  /// Binds every shard (throws std::system_error if any bind fails) and
  /// starts the shard threads.
  explicit ShardedLsd(const ShardedLsdConfig& config);
  ~ShardedLsd();

  ShardedLsd(const ShardedLsd&) = delete;
  ShardedLsd& operator=(const ShardedLsd&) = delete;

  /// The shared TCP port (after ephemeral resolution).
  std::uint16_t port() const { return port_; }

  int shard_count() const { return static_cast<int>(shards_.size()); }

  /// The process-wide byte budget all shard pools draw on.
  buf::SharedBudget& budget() { return budget_; }
  const buf::SharedBudget& budget() const { return budget_; }

  /// Aggregate daemon counters (sum of the shard boards; exact whenever
  /// the shards are quiescent — see engine/stats_board.hpp).
  LsdStats stats() const;
  /// One shard's counters (same publication caveat).
  LsdStats shard_stats(int shard) const;
  /// Faults the config.fault_plan driver has injected (0 without a
  /// plan); published every round like stats().
  std::uint64_t faults_injected() const;

  /// Aggregate pool counters (sums the shard pools' thread-safe stats;
  /// pressure_episodes reports the shared budget's process-wide count).
  buf::PoolStats pool_stats() const;

  // --- Graceful drain (thread-safe) ---------------------------------------

  /// SIGTERM semantics, fanned out: ask every shard to drain (each refuses
  /// new sessions and finishes or parks its in-flight ones). Idempotent.
  void begin_drain();
  bool draining() const { return gate_.requested(); }
  /// True once every shard's drain has resolved (merged report final).
  bool drain_done() const { return gate_.all_done(); }
  /// Element-wise merge of the shard reports; final once drain_done().
  /// A shard keeps counting refusals after its own drain resolved, and
  /// its published report carries them.
  live::DrainReport drain_report() const;

  /// The admin `health` snapshot (published like stats(); safe from any
  /// thread).
  AdminHealth admin_health() const;

  /// The per-shard health boards (empty unless config.health_plane). Each
  /// board is mutex-guarded, so a gossip poller on the control thread may
  /// merge remote rows into them while the shards observe.
  std::vector<health::HealthBoard*> health_boards() const;

 private:
  /// Cross-thread health words (and the fault plan's injection count)
  /// published alongside the stats board.
  struct HealthWords {
    std::uint64_t live_relays = 0;
    std::uint64_t parked_relays = 0;
    std::uint64_t striped_relays = 0;
    std::uint64_t draining = 0;
    std::uint64_t drain_done = 0;
    std::uint64_t faults_injected = 0;
  };

  struct Shard {
    int index = 0;
    engine::EpollEngine engine;
    std::unique_ptr<buf::ChunkPool> pool;  ///< draws on the shared budget
    std::unique_ptr<metrics::LsdMetrics> lsd_metrics;
    std::unique_ptr<metrics::LoopMetrics> loop_metrics;
    /// Per-shard scorecard (mutex-guarded, so the admin thread may read
    /// rows() while the shard thread observes); null unless
    /// config.health_plane. Declared before the daemon, which scores
    /// through it until it is gone.
    std::unique_ptr<health::HealthBoard> health_board;
    std::unique_ptr<Lsd> lsd;
    /// The daemon's relayed bytes at its last progress hook (only kept
    /// while a byte-keyed fault is pending).
    std::atomic<std::uint64_t> relayed{0};
    engine::PostQueue posts;
    engine::StatsBoard<LsdStats> board;
    engine::StatsBoard<HealthWords> health;
    /// The shard's drain report, also published right before its
    /// DrainGate arrival (whose RMW makes it visible to all_done()
    /// readers).
    engine::StatsBoard<live::DrainReport> report;
    std::atomic<bool> stop{false};
    /// Declared last: joined first when the Shard is destroyed, so every
    /// member above outlives the thread that uses it.
    engine::ShardThread thread;
  };

  /// Run `task` on the shard's dispatch thread (next wakeup).
  void post(Shard& s, engine::PostQueue::Task task);
  /// The shard thread: block in epoll until something is ready (a socket,
  /// a timer, a post), dispatch, publish the boards.
  void shard_main(Shard& s);
  void publish(Shard& s);
  /// Build the depot's one fault driver and hook every shard's progress
  /// into its byte-keyed events.
  void arm_fault_plan();
  /// On shard 0's thread: fire the byte-keyed faults the summed relayed
  /// bytes have reached.
  void fire_byte_faults();
  std::uint64_t relayed_total() const;

  ShardedLsdConfig config_;
  buf::SharedBudget budget_;
  engine::DrainGate gate_;
  /// Injected accept refusals owed by the depot; every shard claims from
  /// this one count.
  std::atomic<std::uint32_t> accept_drops_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint16_t port_ = 0;
  /// The depot's `fault.*` instruments (null without a registry and a
  /// plan); outlive the driver that records into them.
  std::unique_ptr<fault::FaultMetrics> fault_metrics_;
  /// The depot's fault driver (null without a plan); runs on shard 0.
  std::unique_ptr<LsdFaultDriver> fault_;
  /// fault_->next_byte_trigger(), readable from every shard's hook.
  std::atomic<std::uint64_t> next_fault_bytes_{~std::uint64_t{0}};
};

}  // namespace lsl::posix
