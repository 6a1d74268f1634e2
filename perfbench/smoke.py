#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py [--seconds S]

Run from the repository root. Runs every workload of BENCHMARK.json,
untraced and traced, on the default seed and on a held-out seed that no
tuning used. Each result line must have exactly the contract's keys,
pass the correctness gate (correct, no failed process) and carry every
metric of its mode with the declared unit and a finite value. Exits 1 on
the first violation.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import DEFAULT_SEED  # noqa: E402

HELD_OUT_SEED = 97


def check(workload, seed, trace, seconds, spec):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    where = f"{workload} seed={seed} trace={trace}"
    if p.returncode != 0:
        return f"{where}: exit code {p.returncode}\n{p.stderr[-2000:]}"
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"{where}: result keys {sorted(result)}"
    if result["correct"] is not True or result["failed"] != 0 or \
            result["attempted"] < 1:
        return f"{where}: gate did not pass: {p.stdout[-2000:]}"
    wanted = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        return f"{where}: metric names {sorted(result['metrics'])}"
    for m in wanted:
        got = result["metrics"][m["name"]]
        if got.get("unit") != m["unit"] or \
                not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            return f"{where}: bad metric {m['name']}: {got}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                problem = check(workload, seed, trace, args.seconds, spec)
                if problem:
                    print(f"FAIL {problem}")
                    return 1
                print(f"ok   {workload} seed={seed} trace={trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
