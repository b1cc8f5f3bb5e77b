#include "posix/sharded_lsd.hpp"

#include <string>
#include <utility>

#include "health/gossip.hpp"
#include "util/contract.hpp"
#include "util/log.hpp"

namespace lsl::posix {

ShardedLsd::ShardedLsd(const ShardedLsdConfig& config)
    : config_(config),
      budget_(config.base.pool.budget_bytes, config.base.pool.low_watermark,
              config.base.pool.high_watermark),
      gate_(static_cast<std::uint32_t>(config.shards > 0 ? config.shards
                                                         : 1)) {
  LSL_PRECONDITION(config_.shards >= 1, "sharded lsd: need at least 1 shard");
  LSL_PRECONDITION(config_.base.shared_pool == nullptr,
                   "sharded lsd: base.shared_pool must be null (the runtime "
                   "builds the per-shard pools)");

  // Build and bind every shard on the caller's thread — the engines are
  // not running yet, so construction needs no synchronization. Shard 0
  // resolves the ephemeral port; the rest bind the same port, all with
  // SO_REUSEPORT so the kernel spreads accepts across the listeners.
  for (int i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    Shard* s = shard.get();
    s->index = i;
    s->pool = std::make_unique<buf::ChunkPool>(config_.base.pool, &budget_);

    LsdConfig cfg = config_.base;
    cfg.shared_pool = s->pool.get();
    cfg.reuse_port = true;
    if (i > 0) cfg.bind.port = port_;
    s->lsd = std::make_unique<Lsd>(s->engine, cfg);
    if (i == 0) port_ = s->lsd->port();

    if (config_.registry != nullptr) {
      const std::string tag = "shard" + std::to_string(i);
      s->lsd_metrics = std::make_unique<metrics::LsdMetrics>(
          *config_.registry, "lsd." + tag);
      s->lsd->set_metrics(s->lsd_metrics.get());
      s->loop_metrics = std::make_unique<metrics::LoopMetrics>(
          *config_.registry, "loop." + tag);
      s->engine.set_metrics(s->loop_metrics.get());
    }
    if (config_.tracer != nullptr) s->lsd->set_tracer(config_.tracer);
    if (config_.health_plane) {
      s->health_board = std::make_unique<health::HealthBoard>(config_.health);
      s->lsd->set_health_board(s->health_board.get());
    }

    // The drain rendezvous: the report is published on the shard thread
    // before the gate arrival's RMW makes it visible.
    s->lsd->on_drain_done = [this, s](const live::DrainReport& rep) {
      s->report.publish(rep);
      gate_.arrive();
    };

    if (config_.fault_plan) {
      s->fault = std::make_unique<LsdFaultDriver>(*s->lsd,
                                                  *config_.fault_plan);
      s->fault->arm();
    }

    s->engine.set_wakeup_callback([s] { s->posts.drain(); });
    publish(*s);
    shards_.push_back(std::move(shard));
  }

  LSL_LOG_INFO("sharded lsd: %d shards on port %u", config_.shards,
               static_cast<unsigned>(port_));

  // Everything a shard thread touches exists now; start the threads.
  for (auto& s : shards_) {
    Shard* sp = s.get();
    sp->thread = engine::ShardThread([this, sp] { shard_main(*sp); });
  }
}

ShardedLsd::~ShardedLsd() {
  for (auto& s : shards_) {
    s->stop.store(true, std::memory_order_release);
    s->engine.wakeup();
  }
  // Shard destruction joins each thread first (member order), then tears
  // down daemon → pools → engines; the shared budget outlives them all.
  shards_.clear();
}

void ShardedLsd::post(Shard& s, engine::PostQueue::Task task) {
  if (s.posts.post(std::move(task))) s.engine.wakeup();
}

void ShardedLsd::shard_main(Shard& s) {
  // Bounded waits so the fault driver's timed events and the
  // parked-session backstop run even while no socket is ready (liveness
  // deadlines ride the daemon's own timerfd regardless). run_once returns
  // -1 only on EINTR; the round is then simply retried.
  while (!s.stop.load(std::memory_order_acquire)) {
    int wait = s.fault ? s.fault->next_timeout_ms()
                       : s.lsd->next_timeout_ms();
    if (wait < 0 || wait > 500) wait = 500;
    if (s.engine.run_once(wait) >= 0) {
      if (s.fault) {
        s.fault->poll();
      } else {
        s.lsd->expire_parked();
      }
    }
    publish(s);
  }
  publish(s);
}

void ShardedLsd::publish(Shard& s) {
  s.board.publish(s.lsd->stats());
  HealthWords h;
  h.live_relays = s.lsd->live_relays();
  h.parked_relays = s.lsd->parked_relays();
  h.striped_relays = s.lsd->striped_relays();
  h.draining = s.lsd->draining() ? 1 : 0;
  h.drain_done = s.lsd->drain_done() ? 1 : 0;
  s.health.publish(h);
  s.report.publish(s.lsd->drain_report());
}

LsdStats ShardedLsd::stats() const {
  LsdStats sum;
  for (const auto& s : shards_) sum = sum + s->board.snapshot();
  return sum;
}

LsdStats ShardedLsd::shard_stats(int shard) const {
  LSL_PRECONDITION(shard >= 0 && shard < shard_count(),
                   "sharded lsd: shard index out of range");
  return shards_[static_cast<std::size_t>(shard)]->board.snapshot();
}

buf::PoolStats ShardedLsd::pool_stats() const {
  buf::PoolStats sum;
  for (const auto& s : shards_) {
    // ChunkPool::stats() is mutex-guarded — safe from this thread.
    const buf::PoolStats ps = s->pool->stats();
    sum.allocs += ps.allocs;
    sum.reuses += ps.reuses;
    sum.creations += ps.creations;
    sum.failures += ps.failures;
    sum.in_use_bytes += ps.in_use_bytes;
    sum.peak_bytes += ps.peak_bytes;
    sum.free_chunks += ps.free_chunks;
  }
  // Per-pool "episodes" all mirror the shared budget; report the
  // process-wide count once instead of N times.
  sum.pressure_episodes = budget_.pressure_episodes();
  return sum;
}

void ShardedLsd::begin_drain() {
  if (!gate_.request()) return;  // idempotent (signals can repeat)
  for (auto& s : shards_) {
    post(*s, [lsd = s->lsd.get()] { lsd->begin_drain(); });
  }
}

live::DrainReport ShardedLsd::drain_report() const {
  live::DrainReport merged;
  for (const auto& s : shards_) {
    const live::DrainReport rep = s->report.snapshot();
    merged.in_flight_at_start += rep.in_flight_at_start;
    merged.completed += rep.completed;
    merged.parked += rep.parked;
    merged.aborted += rep.aborted;
    merged.refused += rep.refused;
    merged.expired = merged.expired || rep.expired;
  }
  return merged;
}

std::vector<health::HealthBoard*> ShardedLsd::health_boards() const {
  std::vector<health::HealthBoard*> boards;
  if (!config_.health_plane) return boards;
  boards.reserve(shards_.size());
  for (const auto& s : shards_) boards.push_back(s->health_board.get());
  return boards;
}

AdminHealth ShardedLsd::admin_health() const {
  AdminHealth h;
  h.port = port_;
  h.shards = shard_count();
  h.draining = draining();
  h.drain_done = drain_done();
  for (const auto& s : shards_) {
    const HealthWords w = s->health.snapshot();
    h.live_relays += w.live_relays;
    h.parked_relays += w.parked_relays;
    h.stripes += w.striped_relays;
  }
  h.stats = stats();
  if (config_.health_plane) {
    std::vector<std::vector<health::DepotHealth>> rows;
    rows.reserve(shards_.size());
    for (const auto& s : shards_) rows.push_back(s->health_board->rows());
    h.depots = health::merge_rows(rows);
  }
  return h;
}

}  // namespace lsl::posix
