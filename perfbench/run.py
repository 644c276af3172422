#!/usr/bin/env python3
"""End-to-end benchmark of the MRAM coupling/reliability simulator.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of BENCHMARK.json, or `all` to run each in turn. Builds
perfbench_runner (perfbench/CMakeLists.txt: the repository's core library
plus the runner, Release) under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then runs the workload. With --trace 0 it also
measures set-up time: it launches the runner in --setup-only mode several
times and takes the median time from launch until the runner reports the
workload ready. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics (with `all`, metric names carry a
`<workload>/` prefix). Exits non-zero without a result when the checkout
does not hold the repository, the build fails or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_LAUNCHES = 31
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build(bdir):
    """Configures (once) and builds the runner; returns its path."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench_runner",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(bdir, "perfbench_runner")


def setup_seconds(exe, workload):
    """Median time from process launch until the workload is ready."""
    samples = []
    for _ in range(SETUP_LAUNCHES):
        start = time.monotonic_ns()  # CLOCK_MONOTONIC, as the runner's clock
        out = subprocess.run([exe, "--workload", workload, "--setup-only"],
                             stdout=subprocess.PIPE, text=True, check=True,
                             timeout=RUN_TIMEOUT_S).stdout.split()
        if len(out) != 2 or out[0] != "ready_ns":
            raise RuntimeError(f"unexpected --setup-only output: {out}")
        samples.append((int(out[1]) - start) / 1e9)
    return statistics.median(samples)


def run_workload(exe, bdir, workload, args):
    """Runs one workload; prints its report lines and returns its result."""
    setup_s = None
    if args.trace == 0:
        setup_s = setup_seconds(exe, workload)
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", repr(args.scale)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(bdir, f"trace-{workload}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise RuntimeError(f"runner exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    for m in result["metrics"].values():
        m["value"] = float(m["value"])  # json.dumps then writes it as a float
    for line in lines[:-1]:
        print(line)
    if setup_s is not None:
        print(f"  setup_s {setup_s!r} s (median of {SETUP_LAUNCHES} launches)")
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=2020)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiplies every trial scale (self-test only)")
    args = ap.parse_args()

    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")
            and os.path.isdir("data")):
        log("run from the repository root (CMakeLists.txt, src/ and data/ "
            "not found)")
        return 2

    bdir = build_dir()
    try:
        exe = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    workloads = [args.workload]
    if args.workload == "all":
        with open("BENCHMARK.json") as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    results = {}
    for workload in workloads:
        try:
            results[workload] = run_workload(exe, bdir, workload, args)
        except (subprocess.SubprocessError, RuntimeError, ValueError) as e:
            log(f"{workload}: {e}")
            return 1
    if len(results) == 1:
        result = results[workload]
    else:
        # One line per workload, then the totals with workload-prefixed
        # metric names.
        for workload, r in results.items():
            print(f"{workload} {json.dumps(r)}")
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
