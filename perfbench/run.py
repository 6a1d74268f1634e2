#!/usr/bin/env python3
"""Host-time benchmark of the SD-PCM simulator.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root. Builds the simulator library and the
benchmark program (perfbench.cpp) from source (CMake, Release) into
$CARGO_TARGET_DIR, or .bench_build when unset, then runs the workload for
--seconds, one `perfbench` process per repetition. Every process passes
the correctness gate or counts as failed. Prints a table of each metric
(median, quartiles, sample count; `unresolved` when its spread exceeds
its bound) and, as the last line of stdout, one JSON result. --trace 0
reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics. See perfbench/README.md for the workloads and what
each metric means.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
# Warnings System::run prints when a run did not complete its work.
RUN_WARNINGS = ("writes pending", "core did not finish")
MIN_REPS = 3
PROCESS_TIMEOUT_S = 40


def build():
    """Configure (once) and build the perfbench program; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources not found under "
                 f"{ROOT}/src; run from a full checkout")
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                          or os.path.join(ROOT, ".bench_build"))
    steps = [["cmake", "--build", out, "-j", str(os.cpu_count() or 1)]]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        p = subprocess.run(cmd, capture_output=True, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout + p.stderr)
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def snapshot_mismatch(ref, got, exact):
    """First simulated metric of `ref` that `got` lacks or disagrees on.

    With `exact`, `got` may not carry extra cells or metrics either;
    otherwise it may (the families observers add).
    """
    if exact and set(got) != set(ref):
        return "cell sets differ"
    for cell, metrics in ref.items():
        cell_got = got.get(cell, {})
        if exact and set(cell_got) != set(metrics):
            return f"{cell}: metric sets differ"
        for name, value in metrics.items():
            if cell_got.get(name, "absent") != value:
                return (f"{cell} {name}: {cell_got.get(name, 'absent')}"
                        f" != {value}")
    return None


class Gate:
    """Runs perfbench processes and applies the correctness gate.

    A process fails on a nonzero exit, a run-incomplete warning, a
    missing result, or a simulated snapshot that differs from the first
    repetition of its configuration, or from the serial observers-off
    reference: in any metric without observers, in a metric the
    reference has with them (observers may only observe).
    """

    def __init__(self, exe, workload, seed):
        self.exe = exe
        self.base_args = [f"--workload={workload}", f"--seed={seed}"]
        self.attempted = 0
        self.failures = []
        self.samples = defaultdict(list)  # (jobs, obs) -> rep results
        self.reference = None  # serial, observers-off snapshot

    def run(self, command, extra=()):
        """One perfbench process; its JSON result, or None if it failed."""
        self.attempted += 1
        cmd = [self.exe, command] + self.base_args + list(extra)
        label = " ".join([command] + list(extra))
        try:
            p = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.failures.append(f"{label}: timed out")
            return None
        problems = [w for w in RUN_WARNINGS if w in p.stderr]
        if p.returncode != 0:
            problems.insert(0, f"exit code {p.returncode}")
        result = None
        if not problems:
            try:
                result = json.loads(p.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                problems.append("no JSON result")
        if problems:
            detail = p.stderr.strip().splitlines()[-1:] or [""]
            self.failures.append(f"{label}: {'; '.join(problems)} "
                                 f"{detail[0]}")
            return None
        return result

    def rep(self, extra=()):
        """One repetition, gated on its simulated snapshot."""
        r = self.run("rep", extra)
        if r is None:
            return None
        key, snap = (r["jobs"], r["obs"]), r["snapshot"]
        problem = None
        if self.samples[key]:
            problem = snapshot_mismatch(self.samples[key][0]["snapshot"],
                                        snap, exact=True)
        if problem is None and self.reference is not None:
            problem = snapshot_mismatch(self.reference, snap,
                                        exact=r["obs"] == "none")
        if problem is not None:
            self.failures.append(f"{' '.join(['rep', *extra])}: {problem}")
            return None
        if key == (1, "none") and self.reference is None:
            self.reference = snap
        self.samples[key].append(r)
        return r

    def need_reference(self):
        """Make sure the serial observers-off reference exists."""
        if self.reference is None:
            self.rep(["--jobs=1", "--obs=none"])


def median_of(results, field):
    return statistics.median(r[field] for r in results)


def measure_end_to_end(gate, seconds):
    """Repeat the workload for `seconds`; per-repetition samples.

    The serial observers-off reference runs first, so every repetition
    is checked against it (for matrix-jobs: parallel against serial).
    """
    start = time.monotonic()
    gate.need_reference()
    own = None
    while len(gate.failures) < MIN_REPS:
        own = gate.rep() or own
        reps = gate.samples[(own["jobs"], own["obs"])] if own else []
        if time.monotonic() - start >= seconds and \
                (len(reps) >= MIN_REPS or gate.failures):
            break
    if own is None:
        return {}
    return {
        "refs_per_cpu_s": [r["refs"] / r["cpu_s"] for r in reps],
        "refs_per_wall_s": [r["refs"] / r["wall_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_kb"] / 1024.0 for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "pass_ratio": [(gate.attempted - len(gate.failures))
                       / gate.attempted],
    }


def measure_layers(gate, seconds):
    """The traced run: full-size reps, layer probes and compare rounds.

    Reps of the workload's own configuration alternate with serial
    observers-off reps (sim and parallel metrics, and the parallel ==
    serial check); `probe` times the pcm, os, encoding and controller
    layers; `compare` interleaves the observer layers and the
    trace-stream decorator against neither (obs, workload and trace
    metrics, as medians of per-round ratios).
    """
    start = time.monotonic()
    gate.need_reference()
    own = gate.rep() if not gate.failures else None
    probe = gate.run("probe") if not gate.failures else None
    compare = (gate.run("compare", [f"--seconds={seconds / 2:g}"])
               if not gate.failures else None)
    if gate.failures:
        return {}
    configs = compare["configs"]
    for name, c in configs.items():
        problem = ("not repeatable" if not c["repeatable"] else
                   snapshot_mismatch(configs["base"]["snapshot"],
                                     c["snapshot"],
                                     exact=name == "decorated"))
        if problem:
            gate.failures.append(f"compare {name}: {problem}")
    own_key, base_key = (own["jobs"], own["obs"]), (1, "none")
    while not gate.failures and time.monotonic() - start < seconds:
        gate.rep()
        if own_key != base_key:
            gate.rep(["--jobs=1", "--obs=none"])
    if gate.failures:
        return {}

    base, owns = gate.samples[base_key], gate.samples[own_key]
    # Per-cell host CPU, serial, with the workload's own observers.
    cell_runs = gate.samples[(1, own["obs"])]
    cells_cpu = [statistics.median(r["cell_cpu_s"][i] for r in cell_runs)
                 for i in range(own["cells"])]
    speedup = statistics.median(r["cpu_s"] / r["wall_s"] for r in owns)
    cpu = {name: c["cpu_s"] for name, c in configs.items()}

    def cost(name):
        """Median over compare rounds of CPU(name) / CPU(base) - 1."""
        return statistics.median(
            x / b for x, b in zip(cpu[name], cpu["base"])) - 1.0

    metrics = {
        "sim.events": base[0]["events"],
        "sim.cpu_ns_per_event":
            median_of(base, "cpu_s") * 1e9 / base[0]["events"],
        "parallel.speedup": speedup,
        "parallel.efficiency": speedup / own["jobs"],
        "parallel.slowest_cell_share":
            max(cells_cpu) / median_of(owns, "wall_s"),
        "workload.records": configs["decorated"]["records"],
        "workload.next_ns":
            statistics.median(configs["decorated"]["next_ns"]),
        "trace.overhead": cost("decorated"),
        "obs.on_cost": cost("all"),
        "obs.prof_residual": statistics.median(
            ns * 1e-9 / c for ns, c in zip(configs["profiler"]["prof_ns"],
                                           cpu["profiler"])) - 1.0,
    }
    for layer in ("spans", "telemetry", "ledger", "profiler"):
        metrics[f"obs.{layer}_cost"] = cost(layer)
    metrics.update(probe)
    return {name: [value] for name, value in metrics.items()}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def report(args, spec, gate, samples):
    """Print the metric table, then the JSON result as the last line."""
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    correct = not gate.failures
    out = {}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}:"
          f" {gate.attempted} processes, {len(gate.failures)} failed"
          f" (fail_ratio {len(gate.failures) / max(gate.attempted, 1):g})")
    for failure in gate.failures:
        print(f"  FAILED {failure}", file=sys.stderr)
    print(f"  {'metric':30} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'n':>3} {'spread':>8}  unit")
    for m in wanted:
        values = samples.get(m["name"])
        if not values or not all(math.isfinite(v) for v in values):
            correct = False
            print(f"  {m['name']:30} missing")
            continue
        med = statistics.median(values)
        out[m["name"]] = {"value": med, "unit": m["unit"]}
        if len(values) == 1:
            print(f"  {m['name']:30} {med:14.6g} {'':14} {'':14} "
                  f"{1:3d} {'':8}  {m['unit']}")
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(med) if med else 0.0
        verdict = ("unresolved" if spread > m["bound"]
                   else f"ok (bound {m['bound']:.0%})")
        print(f"  {m['name']:30} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{len(values):3d} {spread:8.2%}  {m['unit']} {verdict}")
    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": len(gate.failures), "metrics": out}))
    return correct


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    exe = build()
    gate = Gate(exe, args.workload, args.seed)
    measure = measure_layers if args.trace else measure_end_to_end
    samples = measure(gate, args.seconds)
    return 0 if report(args, spec, gate, samples) else 1


if __name__ == "__main__":
    sys.exit(main())
