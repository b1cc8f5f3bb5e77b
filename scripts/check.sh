#!/usr/bin/env bash
# Full verification matrix: build and run the test suite in the plain
# (warnings-as-errors) configuration and again under each sanitizer, run
# the lsl-lint static analyzer, the clang-tidy semantic tier (skips where
# the binary is absent), the mcheck (deterministic model-checker) test
# label, the chaos (scripted fault-injection) label — run plain and under
# tsan, since the fault plans ride shard threads — the shard
# (SO_REUSEPORT multi-shard runtime) label — run both plain and again
# under tsan, where the cross-shard publication protocols face the race
# detector — the stripe (striped multipath session) label, likewise run
# plain and under tsan, and finish with the health (depot health plane)
# label, also plain + tsan: the HealthBoard is shared between shard
# threads, the gossip poller, and admin snapshots, so its lock discipline
# earns a dedicated pass under the race detector. The bench configuration
# runs the benchmark's gate self-test (perfbench/run.py --selftest): its
# `corrupt` case is the gate that rejects a wrong sink verdict; then a short
# `sim` workload run, whose per-seed fidelity gate fails when a simulator
# change moves any recorded figure point; it then builds bench/micro_core
# and runs its MD5 throughput cases (one stream and a pair), its
# simulator event-queue cases and its packet-path case (BM_PacketHop) once,
# with no threshold, so the micro benchmarks cannot rot unbuilt, and runs
# one iteration of the abl_depot_pool and abl_multipath ablations. The
# release configuration builds -DCMAKE_BUILD_TYPE=Release (-O3) with
# warnings as errors and runs the suite there: some warnings (g++'s
# -Wrestrict among them) are only reported by the optimizer. Usage:
#
#   scripts/check.sh [--quick] [--only CONFIG]
#
#   --quick         plain + lint only (the pre-push subset)
#   --only CONFIG   run a single configuration:
#                   plain|release|asan|ubsan|tsan|lint|tidy|mcheck|chaos|shard|stripe|health|bench
#
# Build trees go to build-check-<config>/ so the default build/ directory
# is left untouched. Every configuration keeps LSL_WERROR=ON: a warning
# anywhere in the matrix is a failure.
set -euo pipefail

cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)

configs=(plain release asan ubsan tsan lint tidy mcheck chaos shard stripe health bench)
case "${1:-}" in
  --quick) configs=(plain lint) ;;
  --only)  configs=("${2:?--only needs a config}") ;;
  "")      ;;
  *) echo "usage: scripts/check.sh [--quick] [--only plain|release|asan|ubsan|tsan|lint|tidy|mcheck|chaos|shard|stripe|health|bench]" >&2
     exit 2 ;;
esac

# Per-test wall-clock bound. The liveness work makes hangs much less likely
# (deadlines fire instead), but the harness itself must never wedge on a
# regression: any single test exceeding this is a failure, not a stall.
test_timeout=${LSL_TEST_TIMEOUT:-300}

build_and_test() {  # <tree> <extra cmake args...>
  local tree="$1"; shift
  cmake -B "$tree" -S . -DLSL_WERROR=ON "$@" >/dev/null
  cmake --build "$tree" -j "$jobs"
  ctest --test-dir "$tree" --output-on-failure -j "$jobs" \
        --timeout "$test_timeout"
}

label_tier() {  # <label> [tsan]: one ctest label, plain tree then optionally tsan
  local label="$1" tsan="${2:-}"
  cmake -B build-check -S . -DLSL_WERROR=ON >/dev/null
  cmake --build build-check -j "$jobs"
  ctest --test-dir build-check --output-on-failure -L "$label" \
        --timeout "$test_timeout"
  if [[ "$tsan" == tsan ]]; then
    cmake -B build-check-tsan -S . -DLSL_WERROR=ON \
          -DLSL_SANITIZE=thread >/dev/null
    cmake --build build-check-tsan -j "$jobs"
    ctest --test-dir build-check-tsan --output-on-failure -L "$label" \
          --timeout "$test_timeout"
  fi
}

for config in "${configs[@]}"; do
  echo "== $config =="
  case "$config" in
    plain) build_and_test build-check ;;
    release) build_and_test build-check-release -DCMAKE_BUILD_TYPE=Release ;;
    asan)  build_and_test build-check-asan  -DLSL_SANITIZE=address ;;
    ubsan) build_and_test build-check-ubsan -DLSL_SANITIZE=undefined ;;
    tsan)  build_and_test build-check-tsan  -DLSL_SANITIZE=thread ;;
    lint)  scripts/lint.sh ;;
    tidy)  scripts/tidy.sh ;;
    # Label tiers reuse (or create) the plain tree; the cross-thread ones
    # run again under tsan.
    mcheck) label_tier mcheck ;;      # deterministic model checker + lsl_mc suite
    chaos)  label_tier chaos tsan ;;  # scripted faults on shard threads
    shard)  label_tier shard tsan ;;  # SO_REUSEPORT shard threads
    stripe) label_tier stripe tsan ;; # striped lanes: reassembly + re-striping
    health) label_tier health tsan ;; # HealthBoard shared by shards, gossip, admin
    bench)  python3 perfbench/run.py --selftest    # benchmark gate self-test
            # Every simulated point must equal its recorded value.
            python3 perfbench/run.py --workload sim --seed 1 --seconds 3 \
                --trace 0
            # Execute-and-exit smoke of the micro benchmarks: no threshold,
            # it only proves micro_core builds and runs.
            cmake -B build-check -S . -DLSL_WERROR=ON >/dev/null
            cmake --build build-check -j "$jobs" \
                --target micro_core abl_depot_pool abl_multipath
            build-check/bench/micro_core \
                --benchmark_filter='BM_Md5|BM_EventQueue|BM_PacketHop' \
                --benchmark_min_time=0.01
            # One iteration each of the two ablations that build their own
            # scenarios on the shared hosts (~10 s), no threshold. They
            # write bench_results/ into the working directory: a temp one.
            bench_dir=$(mktemp -d)
            (cd "$bench_dir" &&
             LSL_BENCH_ITERS=1 "$OLDPWD/build-check/bench/abl_depot_pool" &&
             LSL_BENCH_ITERS=1 "$OLDPWD/build-check/bench/abl_multipath")
            rm -rf "$bench_dir" ;;
    *) echo "check.sh: unknown config '$config'" >&2; exit 2 ;;
  esac
done

echo "check.sh: all configurations passed (${configs[*]})"
