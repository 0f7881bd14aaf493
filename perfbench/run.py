"""Benchmark of the `arrangements` command line, driven in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
`src/`, nothing needs installing.  The seed generates the workload's input
files (see cases.py).  Each pass is a fresh interpreter (worker.py) that
runs every case once, the frontier case first, so nothing computed in one
pass reaches the next.  Passes run one at a time, with BLAS threads pinned
to 1, until --seconds have been spent, and at least MIN_PASSES of them.
After the last pass every recorded answer is checked (check.py).

The last line of stdout is one JSON object: correct, attempted and failed
count case runs over all passes; metrics holds the end-to-end metrics of
BENCHMARK.json with --trace 0, or its per-layer metrics with --trace 1.
End-to-end metrics:

    setup_s        median over set-up-only workers of the time from the
                   interpreter's start until it has imported the package
                   and read the case list
    frontier_s     the workload's one hardest case, median over passes
    batch_s        every other case summed, median over passes
    peak_rss_mb    a worker's peak resident memory, median over passes
    decided_ratio  of the case runs that may end either way, answered or
                   Unknown (exit 2), the share answered; 1.0 on a workload
                   without such cases

End-to-end times are CPU seconds scaled to a reference host speed by probes
that a child process free of package code runs alongside each worker (see
worker.py); .bench_work/ keeps the raw wall seconds (passes.json) and the
end-to-end metrics both scaled and raw (summary.json).  A case that fails (wrong answer,
exception, unexpected exit code, past its time budget) counts in `failed`.
A traced run alternates untraced and traced passes; the traced ones wrap
the package's layers (tracer.py), write their spans to .bench_work/ and
give the per-layer numbers: counts from the first traced pass, raw times as
medians over traced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

import cases as casegen
from check import check
from worker import PROBE_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

MIN_PASSES = 2
SETUP_PER_PASS = 3
HARD_LIMIT_S = 160.0  # no pass starts, and none may run, past this point


def worker_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.pop("ARRANGEMENTS_DEGREE_BOUND", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class Workers:
    """Spawns workers for one workload and keeps what they report."""

    def __init__(self, workdir, manifest, started):
        self.workdir = workdir
        self.manifest = manifest
        self.deadline = started + HARD_LIMIT_S
        self.count = 0

    def spawn(self, *flags):
        """Run one worker to completion; return (seconds to ready, result or None)."""
        self.count += 1
        result = self.workdir / f"worker{self.count}.json"
        cmd = [sys.executable, "-s", str(WORKER), str(SRC), str(self.manifest),
               str(result), *flags]
        with open(self.workdir / f"worker{self.count}.err", "w") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    env=worker_env(), text=True)
            try:
                proc.stdout.readline()
                ready = time.monotonic() - spawned
                proc.communicate(timeout=max(1.0, self.deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            return ready, None
        return ready, json.loads(result.read_text())

    def run_pass(self, traced):
        """One pass; untraced passes first time SETUP_PER_PASS set-up-only
        workers.  Set-up and case CPU times are scaled by the speed samples
        taken meanwhile, the wall time by those of the whole pass; the raw
        times are wall seconds."""
        begun = time.perf_counter()
        setup = [] if traced else [self.spawn("--setup-only") for _ in range(SETUP_PER_PASS)]
        flags = ["--trace", str(self.workdir / f"spans{self.count + 1}.jsonl")] if traced else []
        start = time.perf_counter()
        _, result = self.spawn(*flags)
        p = {"traced": traced, "result": result, "wall": time.perf_counter() - start,
             "span": time.perf_counter() - begun}
        if result is None or any(r is None for _, r in setup):
            return dict(p, result=None)
        samples = result["samples"]
        return dict(p, scale=PROBE_REF_S / mean(d for _, d in samples),
                    raw_setup=[t for t, _ in setup],
                    raw_times={k: o["seconds"] for k, o in result["outcomes"].items()},
                    setup=[r["cpu_seconds"] * PROBE_REF_S / mean(d for _, d in r["samples"])
                           for _, r in setup],
                    times={k: o["cpu_seconds"] * PROBE_REF_S / mean(during(o, samples))
                           for k, o in result["outcomes"].items()})


def during(outcome, samples):
    """Probe seconds of the samples taken while the case ran, or of the one
    nearest its start when it was too short to get one."""
    start, end = outcome["start"], outcome["start"] + outcome["seconds"]
    inside = [d for t, d in samples if start <= t < end]
    return inside or [min(samples, key=lambda s: abs(s[0] - start))[1]]


def measure(workers, seconds, traced):
    """Passes until `seconds` are spent: at least MIN_PASSES, or with tracing
    at least one round of an untraced and a traced pass."""
    kinds = [False, True] if traced else [False]
    rounds = 1 if traced else MIN_PASSES
    passes = []
    stop = time.perf_counter() + seconds
    while len(passes) < rounds * len(kinds) or time.perf_counter() < stop:
        longest = max((p["span"] for p in passes), default=0.0)
        if time.perf_counter() + longest > workers.deadline:
            break
        for kind in kinds:
            passes.append(workers.run_pass(kind))
    return passes


def check_passes(cases, passes):
    """(attempted, failed, decided_ratio, reasons) over all case runs.
    decided_ratio counts only the cases that may end either way, answered
    (exit 0) or Unknown (exit 2): the share of their runs that were
    answered, or 1.0 when the workload has no such case."""
    attempted = failed = open_runs = unknown = 0
    reasons = []
    for p in passes:
        outcomes = p["result"]["outcomes"] if p["result"] else {}
        for case in cases:
            attempted += 1
            outcome = outcomes.get(case["id"])
            reason = check(case, outcome) if outcome else "worker did not finish"
            if reason:
                failed += 1
                reasons.append(f"{case['id']}: {reason}")
            elif {0, 2} <= set(case["exits"]):
                open_runs += 1
                unknown += outcome["exit"] == 2
    decided = (open_runs - unknown) / open_runs if open_runs else 1.0
    return attempted, failed, decided, reasons


def end_to_end(cases, passes, decided, scaled=True):
    """Medians over untraced passes, of times scaled to the reference speed
    or, with scaled=False, of raw seconds."""
    frontier = next(c["id"] for c in cases if c["frontier"])
    plain = [p for p in passes if not p["traced"]]
    setup, times = ("setup", "times") if scaled else ("raw_setup", "raw_times")
    return {
        "setup_s": median(t for p in plain for t in p[setup]),
        "frontier_s": median(p[times][frontier] for p in plain),
        "batch_s": median(sum(v for k, v in p[times].items() if k != frontier) for p in plain),
        "peak_rss_mb": median(p["result"]["peak_rss_mb"] for p in plain),
        "decided_ratio": decided,
    }


def per_layer(names, passes):
    """Counts from the first traced pass, times as medians over traced passes."""
    traced = [p for p in passes if p["traced"]]
    plain = [p["wall"] * p["scale"] for p in passes if not p["traced"]]
    layers = [p["result"]["layers"] for p in traced]

    def value(layer, stat, summary):
        if layer == "trace" and stat == "overhead_ratio":
            return median(p["wall"] * p["scale"] for p in traced) / median(plain)
        if layer == "oracles" and stat == "bad_prime":
            ff = summary.get("oracles.finite_field_char_poly", {})
            return ff.get("errors", {}).get("BadPrime", 0)
        return summary.get(layer, {}).get("total_s" if stat == "s" else stat, 0)

    out = {}
    for name in names:
        layer, stat = name.rsplit(".", 1)
        if stat.endswith("_s") or stat == "s" or stat.endswith("_ratio"):
            out[name] = median(value(layer, stat, s) for s in layers)
        else:
            out[name] = value(layer, stat, layers[0])
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=casegen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (SRC / "arrangements" / "cli.py").is_file():
        sys.exit(f"no package source at {SRC / 'arrangements'}; run from a source checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cases = casegen.build(args.workload, args.seed, workdir)
    manifest = workdir / "manifest.json"
    manifest.write_text(json.dumps(cases))

    workers = Workers(workdir, manifest, started)
    passes = measure(workers, args.seconds, bool(args.trace))

    attempted, failed, decided, reasons = check_passes(cases, passes)
    for reason in reasons[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    if not all(p["result"] for p in passes):
        sys.exit(f"a worker did not finish; see {workdir}/worker*.err")
    if args.trace:
        wanted = spec["per_layer"]
        values = per_layer([m["name"] for m in wanted], passes)
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(cases, passes, decided)
        (workdir / "summary.json").write_text(json.dumps(
            {"scaled": values, "raw": end_to_end(cases, passes, decided, scaled=False)}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    (workdir / "passes.json").write_text(json.dumps(
        [{k: v for k, v in p.items() if k != "result"} for p in passes], indent=1))
    for name, m in metrics.items():
        print(f"{name:55s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
