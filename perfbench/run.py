#!/usr/bin/env python3
"""Build and run the LSL benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first form builds perfbench/ (and the library sources under src/) into
.bench_build/perfbench, runs one workload and passes its output through:
the last stdout line is the result object. The second form checks that the
correctness gates reject a corrupted session, an uncounted resume and a
changed simulator model. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "lsl_perfbench")
WORKLOADS = ("bulk", "small", "resume", "sim")
RUN_TIMEOUT_S = 175


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("no library sources at %s; run from a full checkout" % ROOT)
        return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--parallel", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run_binary(args, capture_stderr=False):
    """Run the benchmark binary; returns (exit code, stdout, stderr)."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE if capture_stderr else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 124, e.stdout or "", ""
    return proc.returncode, proc.stdout, proc.stderr or ""


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def selftest():
    """Each gate must reject its staged fault; each control must pass."""
    cases = [
        # (workload, selftest, expect_pass, check on result and stderr)
        ("small", None, True, lambda r, err: r["failed"] == 0),
        ("small", "corrupt", False,
         lambda r, err: r["failed"] == 1 and not r["correct"]),
        # The gate, not a failed session, must reject the run.
        ("resume", "uncounted-reset", False,
         lambda r, err: not r["correct"] and "resume gate" in err),
        ("sim", None, True, lambda r, err: r["failed"] == 0),
        ("sim", "model-drift", False,
         lambda r, err: r["failed"] > 0 and not r["correct"]),
    ]
    ok = True
    for workload, stage, expect_pass, check in cases:
        args = ["--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", "0", "--setups", "1"]
        if stage:
            args += ["--selftest", stage]
        code, out, err = run_binary(args, capture_stderr=True)
        res = last_json(out)
        good = (res is not None and (code == 0) == expect_pass and
                check(res, err))
        log("selftest %-6s %-16s exit=%d %s" % (workload, stage or "control",
                                                 code, "ok" if good else "FAILED"))
        if not good:
            sys.stderr.write(err)
        ok = ok and good
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not build():
        return 2
    if a.selftest:
        return selftest()

    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        args += ["--spans-out",
                 os.path.join(BUILD, "spans-%s-%d.jsonl" % (a.workload, a.seed))]
    code, out, _ = run_binary(args)
    res = last_json(out)
    if res is None or set(res) != {"correct", "attempted", "failed", "metrics"}:
        log("no result line from the benchmark (exit %d)" % code)
        return code or 3
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
