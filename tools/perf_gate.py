#!/usr/bin/env python3
"""End-to-end perf gate: a head checkout against a base checkout.

    python3 tools/perf_gate.py BASE_DIR HEAD_DIR

Runs `python3 perfbench/run.py --workload all --seconds 2` from the root of
each checkout, PAIRS times per side, alternating which side runs first. Each
checkout builds its own perfbench runner under its own .bench_build/. Prints
one row per workload x end-to-end metric of the head's BENCHMARK.json with the
head/base ratio of every pair, then exits 1 when
  - any head run reports `correct: false`,
  - a head run reports more `failed` operations than its paired base run, or
  - a workload x metric is worse than the base by more than the metric's
    `bound` (relative to the base, in its `better` direction) in at least
    FAIL_PAIRS of the PAIRS pairs.
Exits 2 when a run produces no result. Shared hosts drift by tens of percent
over minutes, so only a regression that repeats across most pairs fails.
"""

import json
import os
import statistics
import subprocess
import sys

PAIRS = 5
FAIL_PAIRS = 4
SECONDS = 2


def log(msg):
    print(f"perf_gate: {msg}", file=sys.stderr, flush=True)


def run_once(tree):
    """One `run.py --workload all` in `tree`; returns its result object."""
    env = dict(os.environ)
    # run.py builds under $CARGO_TARGET_DIR when set; unset it so the two
    # trees never share (and overwrite) one build directory.
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--seconds", str(SECONDS)],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: run.py exited with code "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def worse_by(base, head, better):
    """Relative amount by which `head` is worse than `base` (<= 0: not)."""
    if base == 0.0:
        return 0.0 if head == base else float("inf")
    change = (head - base) / abs(base)
    return change if better == "lower" else -change


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base_dir, head_dir = (os.path.abspath(p) for p in sys.argv[1:])
    with open(os.path.join(head_dir, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    pairs = []
    try:
        for i in range(PAIRS):
            order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
            pair = {}
            for side in order:
                log(f"pair {i + 1}/{PAIRS}: {side}")
                pair[side] = run_once(base_dir if side == "base" else head_dir)
            pairs.append(pair)
    except (OSError, RuntimeError, ValueError) as e:
        log(str(e))
        return 2

    failures = []
    for i, pair in enumerate(pairs, 1):
        base, head = pair["base"], pair["head"]
        if not head["correct"]:
            failures.append(f"pair {i}: head reports correct: false")
        if head["failed"] > base["failed"]:
            failures.append(f"pair {i}: head failed {head['failed']} "
                            f"operations, base {base['failed']}")

    header = (f"{'workload/metric':<34} {'better':>6} {'bound':>5}  "
              + " ".join(f"{'pair ' + str(i):>7}" for i in range(1, PAIRS + 1))
              + f"  {'worse':>5}  {'base med':>10}  {'head med':>10}")
    print(f"head/base ratio per pair ({PAIRS} alternating pairs, "
          f"--seconds {SECONDS}; * = worse than the bound)")
    print(header)
    print("-" * len(header))
    for w in workloads:
        for m in metrics:
            key = f"{w}/{m['name']}"
            if any(key not in p["head"]["metrics"] for p in pairs):
                failures.append(f"{key}: missing from the head's result")
                continue
            if any(key not in p["base"]["metrics"] for p in pairs):
                print(f"{key:<34} (new: not reported by the base)")
                continue
            base_v = [p["base"]["metrics"][key]["value"] for p in pairs]
            head_v = [p["head"]["metrics"][key]["value"] for p in pairs]
            cells, worse = [], 0
            for b, h in zip(base_v, head_v):
                bad = worse_by(b, h, m["better"]) > m["bound"]
                worse += bad
                ratio = h / b if b else float("nan")
                cells.append(f"{ratio:6.3f}{'*' if bad else ' '}")
            print(f"{key:<34} {m['better']:>6} {m['bound']:>5}  "
                  + " ".join(cells)
                  + f"  {worse:>3}/{PAIRS}"
                  + f"  {statistics.median(base_v):>10.4g}"
                  + f"  {statistics.median(head_v):>10.4g}")
            if worse >= FAIL_PAIRS:
                failures.append(
                    f"{key}: worse than the base by more than "
                    f"{m['bound']:g} ({m['better']} is better) in "
                    f"{worse} of {PAIRS} pairs")

    if failures:
        print("\nFAIL")
        for f in failures:
            print(f"  {f}")
        return 1
    print("\nok: no end-to-end regression beyond the bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
