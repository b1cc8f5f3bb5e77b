#include "check/suite.hpp"

#include <cstddef>
#include <memory>

#include "buf/budget.hpp"
#include "buf/pool.hpp"
#include "buf/shared_budget.hpp"
#include "check/shim.hpp"
#include "engine/drain_gate.hpp"
#include "engine/post_queue.hpp"
#include "health/board.hpp"
#include "metrics/metrics.hpp"
#include "span/span.hpp"
#include "util/contract.hpp"

namespace lsl::check {

namespace {

using MS = ModelSync;
using ModelPool = buf::BasicChunkPool<MS>;
using ModelRef = buf::BasicChunkRef<MS>;
using ModelRecorder = span::BasicFlightRecorder<MS>;
using ModelCounter = metrics::BasicCounter<MS>;
using ModelGauge = metrics::BasicGauge<MS>;
using ModelCounterMap = metrics::BasicInstrumentMap<MS, ModelCounter>;
using ModelSharedBudget = buf::BasicSharedBudget<MS>;
using ModelPostQueue = engine::BasicPostQueue<MS>;
using ModelDrainGate = engine::BasicDrainGate<MS>;
using ModelHealthBoard = health::BasicHealthBoard<MS>;

// ---------------------------------------------------------------------------
// buf: ChunkPool + MemoryBudget
// ---------------------------------------------------------------------------

// Two threads race copies and resets of one chunk; the last reset recycles
// it. Deep checks (refcount never resurrects, no double recycle, freelist
// refs zero) are armed the whole time.
void pool_refcount() {
  buf::PoolConfig cfg;
  cfg.chunk_bytes = 1024;
  cfg.budget_bytes = 4 * 1024;
  ModelPool pool(cfg);
  ModelRef shared = pool.acquire();
  check_that(static_cast<bool>(shared), "setup: acquire refused with headroom");
  ModelRef c1 = shared;
  ModelRef c2 = shared;
  shared.reset();
  spawn([&] {
    c1.data()[0] = 1;
    c1.reset();
  });
  spawn([&] {
    c2.data()[1] = 2;
    c2.reset();
  });
  run_threads();
  const buf::PoolStats st = pool.stats();
  check_that(st.in_use_bytes == 0, "last reset must release the budget");
  check_that(st.free_chunks == 1, "recycled chunk must be on the freelist");
  check_that(st.allocs == 1 && st.failures == 0, "exactly one acquire");
}

// Three threads contend a two-chunk budget: every acquire must be
// accounted as a success or a refusal, reserve/release must be symmetric,
// and drained pressure must clear.
void pool_budget() {
  buf::PoolConfig cfg;
  cfg.chunk_bytes = 1024;
  cfg.budget_bytes = 2 * 1024;
  cfg.low_watermark = 0.25;
  cfg.high_watermark = 0.75;
  ModelPool pool(cfg);
  int got[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    spawn([&pool, &got, i] {
      ModelRef r = pool.acquire();
      if (r) {
        r.data()[0] = static_cast<std::uint8_t>(i);
        got[i] = 1;
        r.reset();
      }
    });
  }
  run_threads();
  const int oks = got[0] + got[1] + got[2];
  const buf::PoolStats st = pool.stats();
  check_that(st.allocs + st.failures == 3, "every acquire success or refusal");
  check_that(st.allocs == static_cast<std::uint64_t>(oks),
             "success count matches delivered refs");
  check_that(oks >= 2, "at most one contender can see an exhausted budget");
  check_that(st.in_use_bytes == 0, "reserve/release symmetric after drain");
  check_that(!pool.under_pressure(), "pressure must clear once drained");
}

// BUG FIXTURE (the "dropped release" acceptance case): a worker that
// observes admission pressure returns early and skips its release. Only
// schedules where both workers hold reservations simultaneously assert
// pressure, so the leak needs a preemption to surface — exactly what the
// explorer provides.
void budget_leak_bug() {
  buf::MemoryBudget budget(4096, 0.25, 0.5);
  ModelMutex mu;  // MemoryBudget is not thread-safe; scenario guards it
  for (int i = 0; i < 2; ++i) {
    spawn([&] {
      bool ok;
      {
        MS::lock_guard lock(mu);
        ok = budget.reserve(1024);
      }
      if (!ok) return;
      bool pressured;
      {
        MS::lock_guard lock(mu);
        pressured = budget.under_pressure();
      }
      if (pressured) return;  // BUG: early return drops the release
      {
        MS::lock_guard lock(mu);
        budget.release(1024);
      }
    });
  }
  run_threads();
  check_that(budget.in_use() == 0,
             "memory budget leaked: reserve without matching release");
}

// BUG FIXTURE: can_acquire()-then-acquire() is a check-then-act race — the
// headroom the check promised can be gone by the time acquire() runs.
void pool_toctou_bug() {
  buf::PoolConfig cfg;
  cfg.chunk_bytes = 1024;
  cfg.budget_bytes = 1024;  // exactly one chunk of headroom
  ModelPool pool(cfg);
  int delivered[2] = {1, 1};
  for (int i = 0; i < 2; ++i) {
    spawn([&pool, &delivered, i] {
      if (pool.can_acquire()) {  // BUG: decision taken outside acquire's lock
        ModelRef r = pool.acquire();
        delivered[i] = r ? 1 : 0;
        if (r) {
          r.data()[0] = 1;
          r.reset();
        }
      }
    });
  }
  run_threads();
  check_that(delivered[0] == 1 && delivered[1] == 1,
             "can_acquire() promised headroom that acquire() then refused");
}

// The sharded runtime's budget protocol: two shard pools, each with its
// own freelist and local accounting, draw on ONE SharedBudget. Three
// contenders race across the pools against a two-chunk process-wide
// ceiling. No schedule may ever admit bytes past the ceiling, every
// acquire must resolve to a success or a refusal, and both the shared and
// the per-shard local accounting must drain symmetric.
void buf_shared_budget() {
  buf::PoolConfig cfg;
  cfg.chunk_bytes = 1024;
  cfg.budget_bytes = 2 * 1024;
  cfg.low_watermark = 0.25;
  cfg.high_watermark = 0.75;
  ModelSharedBudget budget(cfg.budget_bytes, cfg.low_watermark,
                           cfg.high_watermark);
  ModelPool shard_a(cfg, &budget);
  ModelPool shard_b(cfg, &budget);
  ModelPool* pools[3] = {&shard_a, &shard_b, &shard_a};
  int got[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    spawn([&budget, &pools, &got, i] {
      ModelRef r = pools[i]->acquire();
      if (r) {
        check_that(budget.in_use() <= budget.budget(),
                   "shared budget admitted bytes past the ceiling");
        r.data()[0] = static_cast<std::uint8_t>(i);
        got[i] = 1;
        r.reset();
      }
    });
  }
  run_threads();
  const buf::PoolStats sa = shard_a.stats();
  const buf::PoolStats sb = shard_b.stats();
  check_that(sa.allocs + sb.allocs + sa.failures + sb.failures == 3,
             "every cross-shard acquire success or refusal");
  check_that(sa.allocs + sb.allocs ==
                 static_cast<std::uint64_t>(got[0] + got[1] + got[2]),
             "success count matches delivered refs");
  check_that(got[0] + got[1] + got[2] >= 2,
             "at most one contender can see an exhausted shared budget");
  check_that(budget.in_use() == 0, "shared reserve/release symmetric");
  check_that(sa.in_use_bytes == 0 && sb.in_use_bytes == 0,
             "per-shard local accounting symmetric after drain");
  check_that(budget.peak() <= budget.budget(),
             "peak may never exceed the shared ceiling");
  check_that(!budget.under_pressure(), "pressure must clear once drained");
}

// The sharded runtime's work-injection protocol: a control thread posts
// closures into a shard's queue (the was-empty return deciding whether to
// ring the engine's wakeup) while the shard thread drains. No schedule may
// lose or duplicate a task, and the empty->non-empty edge must signal at
// least once — the coalescing contract wakeup() relies on.
void engine_post_queue() {
  ModelPostQueue q;
  int ran[2] = {0, 0};
  int wakeups = 0;  // control-thread local
  spawn([&] {
    for (int i = 0; i < 2; ++i) {
      if (q.post([&ran, i] { ++ran[i]; })) ++wakeups;
    }
  });
  spawn([&] { q.drain(); });  // the shard thread's wakeup-driven drain
  run_threads();
  q.drain();  // the engine drains again on its next turn
  check_that(ran[0] == 1 && ran[1] == 1,
             "every posted task runs exactly once");
  check_that(q.pending() == 0, "queue drained");
  check_that(wakeups >= 1, "the empty->non-empty edge must signal a wakeup");
  check_that(wakeups <= 2, "a non-empty queue must coalesce, not re-signal");
}

// The sharded runtime's drain rendezvous: SIGTERM can land more than once
// and begin_drain() races itself, so exactly one request() wins; each
// shard then finishes its sessions and arrives exactly once; all_done()
// becomes true precisely at the last arrival (the over-arrival assert in
// the gate stays armed throughout).
void engine_drain_gate() {
  ModelDrainGate gate(2);
  bool won[2] = {false, false};
  for (int i = 0; i < 2; ++i) {
    spawn([&gate, &won, i] {
      won[i] = gate.request();  // repeated signal: both shards may request
      check_that(gate.requested(), "request() must be visible immediately");
      const bool last = gate.arrive();
      if (last) {
        check_that(gate.all_done(), "last arrival must observe all_done");
      }
    });
  }
  run_threads();
  check_that((won[0] ? 1 : 0) + (won[1] ? 1 : 0) == 1,
             "exactly one racing request() may win");
  check_that(gate.arrived() == 2, "every shard arrives exactly once");
  check_that(gate.all_done(), "drain resolves once all shards arrive");
}

// ---------------------------------------------------------------------------
// span: FlightRecorder claim/fill/release ring
// ---------------------------------------------------------------------------

// Records are written with a redundant encoding (trace_id == bytes,
// start == end) so any torn read/write shows up as an inconsistent record.
bool torn(const span::SpanRecord& r) {
  return r.trace_id != r.bytes || r.start != r.end;
}

// Two writers on distinct slots race a concurrent snapshotter. The
// snapshot must only ever see internally consistent records, and every
// record must end up published or counted as dropped.
void recorder_claim() {
  ModelRecorder rec(2);
  spawn([&] { rec.record({1, span::kSpanAccept, 1.0, 1.0, 1}); });
  spawn([&] { rec.record({2, span::kSpanDial, 2.0, 2.0, 2}); });
  spawn([&] {
    std::vector<span::SpanRecord> snap;
    rec.snapshot(snap);
    for (const span::SpanRecord& r : snap) {
      check_that(!torn(r), "concurrent snapshot observed a torn record");
    }
  });
  run_threads();
  check_that(rec.recorded() == 2, "both tickets taken");
  std::vector<span::SpanRecord> fin;
  rec.snapshot(fin);
  for (const span::SpanRecord& r : fin) {
    check_that(!torn(r), "published record torn");
  }
  check_that(fin.size() + rec.dropped() == 2,
             "every record published or counted as a drop");
}

// Three writers on a two-slot ring: two tickets collide on slot 0, so the
// run exercises claim contention (a counted drop) and/or overwrite. The
// ring must retain exactly its capacity in published records.
void recorder_wrap() {
  ModelRecorder rec(2);
  for (int i = 0; i < 3; ++i) {
    spawn([&rec, i] {
      const std::uint64_t id = static_cast<std::uint64_t>(i) + 1;
      rec.record({id, span::kSpanStreamWindow, static_cast<double>(id),
                  static_cast<double>(id), id});
    });
  }
  run_threads();
  check_that(rec.recorded() == 3, "all three tickets taken");
  check_that(rec.dropped() <= 1, "only one of a colliding pair can drop");
  std::vector<span::SpanRecord> fin;
  rec.snapshot(fin);
  for (const span::SpanRecord& r : fin) {
    check_that(!torn(r), "published record torn");
  }
  check_that(fin.size() == 2, "a full lapped ring retains capacity records");
}

// ---------------------------------------------------------------------------
// metrics: registration + extreme tracking
// ---------------------------------------------------------------------------

// Two threads race get_or_create() on one name: they must intern to the
// same instrument and neither increment may be lost.
void metrics_register() {
  ModelCounterMap map;
  const ModelCounter* seen[2] = {nullptr, nullptr};
  for (int i = 0; i < 2; ++i) {
    spawn([&map, &seen, i] {
      ModelCounter& c = map.get_or_create("relay.sessions");
      c.inc();
      seen[i] = &c;
    });
  }
  run_threads();
  check_that(seen[0] != nullptr && seen[0] == seen[1],
             "racing registrations must intern to one instrument");
  check_that(seen[0]->value() == 2, "an increment was lost");
  check_that(map.size() == 1, "one name must yield one instrument");
}

// The fixed Gauge: extremes converge through CAS from identity values, so
// no schedule can lose one.
void gauge_extremes() {
  ModelGauge g;
  spawn([&] { g.set(5.0); });
  spawn([&] { g.set(3.0); });
  run_threads();
  check_that(g.touched(), "gauge set but not touched");
  check_that(g.max() == 5.0, "max lost the larger concurrent set");
  check_that(g.min() == 3.0, "min lost the smaller concurrent set");
  const double v = g.value();
  check_that(v == 5.0 || v == 3.0, "value must be one of the sets");
}

// BUG FIXTURE: the pre-seam Gauge::set seeded the extremes from the first
// setter after a touched_ exchange; a concurrent setter's CAS-established
// extreme lands in that window and is clobbered by the seeding store.
struct SeededGauge {
  ModelAtomic<double> v_{0.0};
  ModelAtomic<double> max_{0.0};
  ModelAtomic<double> min_{0.0};
  ModelAtomic<bool> touched_{false};

  void set(double v) noexcept {
    v_.store(v);
    if (!touched_.exchange(true)) {
      max_.store(v);
      min_.store(v);
      return;
    }
    double cur = max_.load();
    while (v > cur && !max_.compare_exchange_weak(cur, v)) {
    }
    cur = min_.load();
    while (v < cur && !min_.compare_exchange_weak(cur, v)) {
    }
  }
};

void gauge_seed_bug() {
  SeededGauge g;
  spawn([&] { g.set(5.0); });
  spawn([&] { g.set(3.0); });
  run_threads();
  check_that(g.max_.load() == 5.0,
             "seeding store clobbered a concurrent larger max");
  check_that(g.min_.load() == 3.0,
             "seeding store clobbered a concurrent smaller min");
}

// ---------------------------------------------------------------------------
// health: HealthBoard scoring + hysteresis
// ---------------------------------------------------------------------------

// Two observers race failure/success observations on one depot (the
// daemon's relay finishes vs a sibling's — or under ShardedLsd, the shard
// thread vs the gossip poller's merge path, which shares the same lock).
// The invariants are what no interleaving may break: every counter update
// lands, every state change is recorded exactly once, the additive score
// commutes at a single instant, and hysteresis moves at most one level
// per observation (the board's own kChecked model_assert arms that last
// one on every internal step as well).
void health_transitions() {
  ModelHealthBoard board;
  const std::uint64_t t = 1000;  // one instant: decay stays out of the frame
  health::HealthEffect eff[4];
  spawn([&] {
    eff[0] = board.observe_failure("d1", t);
    eff[1] = board.observe_failure("d1", t);
  });
  spawn([&] {
    eff[2] = board.observe_failure("d1", t);
    eff[3] = board.observe_success("d1", t);
  });
  run_threads();
  std::uint64_t stepped = 0;
  for (const health::HealthEffect& e : eff) {
    check_that(e.steps() <= 1, "hysteresis must move at most one level");
    if (e.transitioned()) ++stepped;
  }
  const health::DepotHealth row = board.row("d1");
  check_that(row.failures == 3 && row.successes == 1,
             "an observation's counter update was lost");
  check_that(row.transitions == stepped,
             "a state transition was lost or invented");
  check_that(board.transitions() == stepped,
             "the board-wide transition total drifted from the row's");
  // 3 failures and 1 success at one instant: the additive score is
  // order-independent (1 - 3*0.25 + 0.15; clamping never binds en route).
  const double want = 1.0 - 3 * 0.25 + 0.15;
  check_that(row.score > want - 1e-9 && row.score < want + 1e-9,
             "score must commute across observation orders");
  // Where the ladder halts depends on when the success landed — but a
  // 0.40 score can never read healthy (it is inside the demote band) and
  // never dead (the streak is broken and the score clears demote_dead).
  check_that(row.state == health::DepotState::kDegraded ||
                 row.state == health::DepotState::kSuspect,
             "final state must sit inside the hysteresis band");
  check_that(!board.admissible("d1") ||
                 row.state == health::DepotState::kDegraded,
             "admission verdict must match the final state");
}

// ---------------------------------------------------------------------------
// check: the shims themselves
// ---------------------------------------------------------------------------

// Producer/consumer over a model condvar: classic predicate-loop handoff.
void cv_handoff() {
  ModelMutex mu;
  ModelCv cv;
  int queued = 0;  // both guarded by mu
  bool done = false;
  int consumed = 0;
  spawn([&] {
    for (int i = 0; i < 2; ++i) {
      MS::unique_lock lk(mu);
      ++queued;
      cv.notify_one();
    }
    MS::unique_lock lk(mu);
    done = true;
    cv.notify_one();
  });
  spawn([&] {
    MS::unique_lock lk(mu);
    for (;;) {
      cv.wait(lk, [&] { return queued > 0 || done; });
      while (queued > 0) {
        --queued;
        ++consumed;
      }
      if (done) break;
    }
  });
  run_threads();
  check_that(consumed == 2, "every produced item consumed exactly once");
  check_that(queued == 0, "queue drained");
}

// BUG FIXTURE: the textbook AB/BA ordering deadlock (the dynamic twin of
// lsl_lint's lock-order rule). Needs one preemption between T0's two
// acquisitions; the scheduler's deadlock detector reports it with a seed.
void lock_order_bug() {
  ModelMutex a;
  ModelMutex b;
  // The deliberate AB/BA below is this fixture's whole point; the static
  // rule (which flags exactly this shape) is waved off inline.
  spawn([&] {
    MS::lock_guard la(a);
    MS::lock_guard lb(b);  // lsl-lint: allow(lock-order)
  });
  spawn([&] {
    MS::lock_guard lb(b);
    MS::lock_guard la(a);  // lsl-lint: allow(lock-order)
  });
  run_threads();
}

// ---------------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------------

struct ScenarioDef {
  ScenarioInfo info;
  void (*body)();
};

Options budgets(int max_schedules, int preemption_bound, int max_steps) {
  Options o;
  o.max_schedules = max_schedules;
  o.preemption_bound = preemption_bound;
  o.max_steps = max_steps;
  return o;
}

const std::vector<ScenarioDef>& defs() {
  static const std::vector<ScenarioDef> kDefs = {
      {{"pool_refcount", "buf",
        "ChunkPool refcount copy/reset race; last ref recycles exactly once",
        false, budgets(20000, 2, 20000)},
       &pool_refcount},
      {{"pool_budget", "buf",
        "3 threads contend a 2-chunk budget; accounting stays symmetric",
        false, budgets(60000, 2, 20000)},
       &pool_budget},
      {{"budget_leak_bug", "buf",
        "seeded bug: worker seeing pressure skips its release (leak)", true,
        budgets(20000, 2, 20000)},
       &budget_leak_bug},
      {{"pool_toctou_bug", "buf",
        "seeded bug: can_acquire()/acquire() check-then-act race", true,
        budgets(20000, 2, 20000)},
       &pool_toctou_bug},
      {{"buf_shared_budget", "buf",
        "2 shard pools on one SharedBudget; ceiling holds, drain symmetric",
        false, budgets(120000, 2, 40000)},
       &buf_shared_budget},
      {{"engine_post_queue", "engine",
        "cross-thread post/drain loses no task; empty edge signals wakeup",
        false, budgets(60000, 2, 20000)},
       &engine_post_queue},
      {{"engine_drain_gate", "engine",
        "racing drain requests: one winner, exact arrivals, all_done last",
        false, budgets(60000, 2, 20000)},
       &engine_drain_gate},
      {{"recorder_claim", "span",
        "2 writers + concurrent snapshot on the claim/fill/release ring",
        false, budgets(60000, 2, 20000)},
       &recorder_claim},
      {{"recorder_wrap", "span",
        "3 writers lap a 2-slot ring: claim contention drops, never tears",
        false, budgets(60000, 2, 20000)},
       &recorder_wrap},
      {{"metrics_register", "metrics",
        "racing get_or_create() interns one instrument, loses no update",
        false, budgets(20000, 2, 20000)},
       &metrics_register},
      {{"gauge_extremes", "metrics",
        "fixed Gauge: concurrent sets never lose a max/min extreme", false,
        budgets(20000, 2, 20000)},
       &gauge_extremes},
      {{"gauge_seed_bug", "metrics",
        "seeded bug: pre-seam Gauge extreme-seeding store clobbers a CAS",
        true, budgets(20000, 2, 20000)},
       &gauge_seed_bug},
      {{"health_transitions", "health",
        "racing observers on one depot: no lost transition, one-step "
        "hysteresis",
        false, budgets(60000, 2, 20000)},
       &health_transitions},
      {{"cv_handoff", "check",
        "producer/consumer over the model condvar (predicate loop)", false,
        budgets(20000, 2, 20000)},
       &cv_handoff},
      {{"lock_order_bug", "check",
        "seeded bug: AB/BA mutex ordering deadlock, detected with a seed",
        true, budgets(20000, 2, 20000)},
       &lock_order_bug},
  };
  return kDefs;
}

const ScenarioDef* find_def(const std::string& name) {
  for (const ScenarioDef& d : defs()) {
    if (d.info.name == name) return &d;
  }
  return nullptr;
}

}  // namespace

const std::vector<ScenarioInfo>& scenarios() {
  static const std::vector<ScenarioInfo> kInfos = [] {
    std::vector<ScenarioInfo> out;
    for (const ScenarioDef& d : defs()) out.push_back(d.info);
    return out;
  }();
  return kInfos;
}

const ScenarioInfo* find_scenario(const std::string& name) {
  const ScenarioDef* d = find_def(name);
  return d == nullptr ? nullptr : &d->info;
}

Outcome run_scenario(const std::string& name, const Options& overrides) {
  const ScenarioDef* d = find_def(name);
  LSL_PRECONDITION(d != nullptr, "run_scenario: unknown scenario name");
  const Options merged = merge_options(d->info.defaults, overrides);
  void (*body)() = d->body;
  return explore(merged, [body] { body(); });
}

}  // namespace lsl::check
