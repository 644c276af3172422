#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny trial scale.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs perfbench/run.py once with
--trace 0 and once with --trace 1 at 1/20 of the benchmark's trial scales and
asserts that the result line has exactly the keys correct, attempted, failed
and metrics; that checks ran (attempted >= 1, failed <= attempted); and that
the metrics are exactly the end_to_end (trace 0) or per_layer (trace 1)
metrics of BENCHMARK.json, each a finite float with its listed unit. At
this scale the statistical checks may fail; only that they ran is asserted.
Exits 0 when every assertion holds.
"""

import json
import math
import subprocess
import sys

SCALE = "0.05"


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace),
         "--scale", SCALE],
        stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        return None, [f"exit code {proc.returncode}"]
    return json.loads(proc.stdout.splitlines()[-1]), []


def check(result, specs):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
        return errors
    attempted, failed = result["attempted"], result["failed"]
    if not (isinstance(attempted, int) and isinstance(failed, int)
            and attempted >= 1 and 0 <= failed <= attempted):
        errors.append(f"attempted {attempted!r}, failed {failed!r}")
    if result["correct"] != (failed == 0):
        errors.append("correct disagrees with failed")
    metrics = result["metrics"]
    want = {s["name"]: s["unit"] for s in specs}
    if set(metrics) != set(want):
        errors.append("metric names differ: missing "
                      f"{sorted(set(want) - set(metrics))}, extra "
                      f"{sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        m = metrics.get(name)
        if m is None:
            continue
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            errors.append(f"{name}: {m}")
        elif not (isinstance(m["value"], float)
                  and math.isfinite(m["value"])):
            errors.append(f"{name}: value {m['value']!r}")
    return errors


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    failures = 0
    for w in bench["workloads"]:
        for trace, specs in ((0, bench["end_to_end"]),
                             (1, bench["per_layer"])):
            result, errors = run(w["name"], trace)
            if result is not None:
                errors = check(result, specs)
            status = "ok  " if not errors else "FAIL"
            detail = (f"{result['attempted']} checks, {result['failed']} "
                      "failed" if result else "")
            print(f"{status} {w['name']} --trace {trace} {detail}")
            for e in errors:
                print(f"     {e}")
            failures += bool(errors)
    print(f"self-test: {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
