#!/usr/bin/env bash
# Pooled-memory data-path smoke bench: drive the real daemon with
# tools/lsl_load (splice fast path and chunk-pool fallback) plus the
# micro_core MD5/copy micro-benchmarks, and maintain the BENCH_pool.json
# baseline at the repo root.
#
#   scripts/bench_smoke.sh [--update]
#
# Without --update: if BENCH_pool.json exists, the splice-path aggregate
# throughput must come in at >= REGRESSION_FRACTION (default 0.8) of the
# recorded baseline, the fallback run must keep its >90% chunk reuse rate,
# the pool must never exceed its budget, and a spans-on run must hold
# >= TRACING_OVERHEAD_FRACTION (default 0.95) of the spans-off rate —
# any miss fails the script.
#
# Shard scaling: every lsl_load depot is a ShardedLsd with --cores shards,
# driven by --cores client threads. A --cores=2 splice run (2 SO_REUSEPORT
# daemon shards + 2 client driver threads) is always recorded as a 1 -> 2
# curve. The >= SHARD_SPEEDUP_FLOOR (default 1.3) aggregate
# speedup gate is only *enforced* when the machine has >= 4 CPUs — 2 shard
# threads + 2 driver threads need real parallelism to show a speedup, and
# on fewer cores the legs just time-slice one another. Below that the
# curve is still measured and written with "gate": "skipped: N cpus".
#
# Depot churn (docs/HEALTH.md acceptance): a 3-depot run with the health
# plane on is measured twice — once healthy, once with a scripted
# mid-run crash of one seed-chosen depot (--churn-spec). Load-aware
# admission must shed the dead depot instead of burning every slot's
# retry budget, so the churned run's p99 completion latency must stay
# <= CHURN_P99_FACTOR (default 2.0) x the healthy baseline's p99, and at
# least one fault must actually have been injected.
#
# The baseline file is then refreshed. With --update, comparison is
# skipped (use after intentional perf-relevant changes).
set -euo pipefail

cd "$(dirname "$0")/.."

update_only=false
[[ "${1:-}" == "--update" ]] && update_only=true

REGRESSION_FRACTION="${REGRESSION_FRACTION:-0.8}"
TRACING_OVERHEAD_FRACTION="${TRACING_OVERHEAD_FRACTION:-0.95}"
SHARD_SPEEDUP_FLOOR="${SHARD_SPEEDUP_FLOOR:-1.3}"
CHURN_P99_FACTOR="${CHURN_P99_FACTOR:-2.0}"
BASELINE=BENCH_pool.json
jobs=$(nproc 2>/dev/null || echo 4)
cpus=$(nproc 2>/dev/null || echo 1)

cmake -B build -S . >/dev/null
cmake --build build -j "$jobs" --target lsl_load micro_core >/dev/null

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Splice fast path: the loopback throughput baseline.
./build/tools/lsl_load --sessions=64 --bytes=2m --budget=64m \
  --json="$tmp/splice.json"

# The same workload with session tracing on: every transfer carries a
# trace id and the daemon records spans into its flight recorder. The
# span hot path is one branch + one lock-free ring write per MiB, so
# spans-on must stay within TRACING_OVERHEAD_FRACTION (default 5%) of
# spans-off — the tracing-overhead gate.
./build/tools/lsl_load --sessions=64 --bytes=2m --budget=64m --trace \
  --json="$tmp/traced.json"

# Shard scaling leg: the same splice workload at --cores=2 (2 SO_REUSEPORT
# shards, 2 driver threads). The cores=1 point of the curve is the splice
# run above: the same runtime with 1 shard and 1 driver thread.
./build/tools/lsl_load --sessions=64 --bytes=2m --budget=64m --cores=2 \
  --json="$tmp/shard2.json"

# Depot churn leg: 3 depots behind the client-side health plane, healthy
# first, then with one seed-chosen depot crashed mid-run (byte-keyed so
# the fault lands deterministically mid-load regardless of machine speed)
# and restarted shortly after. Same seed, same topology — only the fault
# differs.
./build/tools/lsl_load --sessions=48 --bytes=2m --budget=64m \
  --depots=3 --health --json="$tmp/healthy3.json"
./build/tools/lsl_load --sessions=48 --bytes=2m --budget=64m \
  --depots=3 --health \
  --churn-spec="crash:depot=d1,at_bytes=8388608,for=500ms" \
  --json="$tmp/churn3.json"

# Chunk-pool fallback, sized so every chunk turns over several times:
# budget/chunk = 512 chunks carrying 64 x 8 MiB = 8192 chunk-loads, so
# the reuse rate must be high if recycling works at all.
./build/tools/lsl_load --sessions=64 --bytes=8m --budget=32m --no-splice \
  --json="$tmp/pool.json"

# Core micro-benchmarks (MD5 + payload generator bound the copy path).
./build/bench/micro_core --benchmark_filter='BM_Md5Throughput/65536|BM_PayloadGenerate' \
  --benchmark_min_time=0.05 --benchmark_format=json \
  >"$tmp/micro.json" 2>/dev/null

python3 - "$tmp" "$BASELINE" "$REGRESSION_FRACTION" "$update_only" \
  "$TRACING_OVERHEAD_FRACTION" "$SHARD_SPEEDUP_FLOOR" "$cpus" \
  "$CHURN_P99_FACTOR" <<'EOF'
import json, sys, os

tmp, baseline_path, frac, update_only = (
    sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4] == "true")
trace_frac = float(sys.argv[5])
shard_floor = float(sys.argv[6])
cpus = int(sys.argv[7])
churn_factor = float(sys.argv[8])

splice = json.load(open(os.path.join(tmp, "splice.json")))
traced = json.load(open(os.path.join(tmp, "traced.json")))
shard2 = json.load(open(os.path.join(tmp, "shard2.json")))
healthy3 = json.load(open(os.path.join(tmp, "healthy3.json")))
churn3 = json.load(open(os.path.join(tmp, "churn3.json")))
pool = json.load(open(os.path.join(tmp, "pool.json")))
micro = json.load(open(os.path.join(tmp, "micro.json")))

failures = []
if not splice["ok"]:
    failures.append("splice-path lsl_load run failed")
if not pool["ok"]:
    failures.append("fallback lsl_load run failed")
if splice["bytes_spliced"] == 0:
    failures.append("splice path never engaged")
if pool["pool_reuse_rate"] < 0.90:
    failures.append(
        f"chunk reuse rate {pool['pool_reuse_rate']:.1%} below 90%")
if not traced["ok"]:
    failures.append("traced lsl_load run failed")
trace_ratio = traced["aggregate_mbps"] / max(splice["aggregate_mbps"], 1e-9)
if trace_ratio < trace_frac:
    failures.append(
        "tracing overhead gate: spans-on %.1f Mbit/s is %.1f%% of "
        "spans-off %.1f (floor %.0f%%)"
        % (traced["aggregate_mbps"], trace_ratio * 100,
           splice["aggregate_mbps"], trace_frac * 100))
for name, run in (("splice", splice), ("pool", pool), ("shard2", shard2)):
    if run["pool_peak_bytes"] > run["pool_budget_bytes"]:
        failures.append(f"{name} run exceeded its memory budget")

# Shard scaling: correctness of the cores=2 leg is always required; the
# speedup floor only binds with enough CPUs for 4 busy threads to truly
# run in parallel (2 shards + 2 drivers).
if not shard2["ok"]:
    failures.append("sharded (--cores=2) lsl_load run failed")
if shard2["bytes_spliced"] == 0:
    failures.append("sharded run: splice path never engaged")
speedup = shard2["aggregate_mbps"] / max(splice["aggregate_mbps"], 1e-9)
if cpus >= 4:
    gate = "enforced"
    if speedup < shard_floor:
        failures.append(
            "shard scaling gate: cores=2 aggregate %.1f Mbit/s is only "
            "%.2fx cores=1's %.1f (floor %.1fx on %d cpus)"
            % (shard2["aggregate_mbps"], speedup,
               splice["aggregate_mbps"], shard_floor, cpus))
else:
    gate = "skipped: %d cpus" % cpus

# Depot churn: every session must still verify in both 3-depot runs, the
# scripted crash must actually have fired, and the health plane must keep
# the churned run's tail within the factor of the healthy baseline.
if not healthy3["ok"]:
    failures.append("healthy 3-depot lsl_load run failed")
if not churn3["ok"]:
    failures.append("churned 3-depot lsl_load run failed")
if churn3.get("churn_faults", 0) < 1:
    failures.append("churn run: the scripted fault never fired")
churn_ratio = churn3["latency_p99_ms"] / max(healthy3["latency_p99_ms"], 1e-9)
if churn_ratio > churn_factor:
    failures.append(
        "churn p99 gate: churned p99 %.1f ms is %.2fx the healthy "
        "baseline's %.1f ms (ceiling %.1fx)"
        % (churn3["latency_p99_ms"], churn_ratio,
           healthy3["latency_p99_ms"], churn_factor))

bench = {
    b["name"]: b.get("bytes_per_second", b.get("real_time"))
    for b in micro.get("benchmarks", [])
}

result = {
    "splice_aggregate_mbps": round(splice["aggregate_mbps"], 3),
    "traced_aggregate_mbps": round(traced["aggregate_mbps"], 3),
    "tracing_overhead_ratio": round(trace_ratio, 4),
    "fallback_aggregate_mbps": round(pool["aggregate_mbps"], 3),
    "sessions_per_s": round(splice["sessions_per_s"], 3),
    "pool_reuse_rate": round(pool["pool_reuse_rate"], 4),
    "pool_peak_bytes": pool["pool_peak_bytes"],
    "pool_budget_bytes": pool["pool_budget_bytes"],
    "peak_rss_bytes": max(splice["peak_rss_bytes"], pool["peak_rss_bytes"]),
    "md5_bytes_per_second": bench.get("BM_Md5Throughput/65536"),
    "shard_scaling": {
        "cores": [1, 2],
        "aggregate_mbps": [round(splice["aggregate_mbps"], 3),
                           round(shard2["aggregate_mbps"], 3)],
        "speedup": round(speedup, 4),
        "floor": shard_floor,
        "cpus": cpus,
        "gate": gate,
    },
    "depot_churn": {
        "healthy_p99_ms": round(healthy3["latency_p99_ms"], 3),
        "churn_p99_ms": round(churn3["latency_p99_ms"], 3),
        "p99_ratio": round(churn_ratio, 4),
        "ceiling": churn_factor,
        "churn_depot": churn3.get("churn_depot"),
        "churn_faults": churn3.get("churn_faults", 0),
    },
    "lsl_load_args": {
        "splice": "--sessions=64 --bytes=2m --budget=64m",
        "traced": "--sessions=64 --bytes=2m --budget=64m --trace",
        "shard2": "--sessions=64 --bytes=2m --budget=64m --cores=2",
        "healthy3": "--sessions=48 --bytes=2m --budget=64m --depots=3 "
                    "--health",
        "churn3": "--sessions=48 --bytes=2m --budget=64m --depots=3 "
                  "--health --churn-spec=crash:depot=d1,"
                  "at_bytes=8388608,for=500ms",
        "fallback": "--sessions=64 --bytes=8m --budget=32m --no-splice",
    },
}

if os.path.exists(baseline_path) and not update_only:
    base = json.load(open(baseline_path))
    floor = base["splice_aggregate_mbps"] * frac
    if result["splice_aggregate_mbps"] < floor:
        failures.append(
            "splice aggregate %.1f Mbit/s below %.0f%% of baseline %.1f"
            % (result["splice_aggregate_mbps"], frac * 100,
               base["splice_aggregate_mbps"]))

if failures:
    for f in failures:
        print("bench_smoke: FAIL:", f, file=sys.stderr)
    sys.exit(1)

with open(baseline_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
print("bench_smoke: OK — baseline written to", baseline_path)
print(json.dumps(result, indent=2))
EOF
