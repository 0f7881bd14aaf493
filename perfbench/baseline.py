"""Run every workload on seeds 1-10 and summarize, as a baseline.

    python3 perfbench/baseline.py [--out FILE] [--against FILE]

For each workload: one untraced run per seed, then one traced run on the
first seed.  Each end-to-end metric gets its values, median, quartiles and
spread (interquartile distance over the median, as
statistics.quantiles(values, n=4) gives the quartiles), and beside them the
median and spread of the same metric in raw, unscaled seconds (run.py's summary.json);
the traced run gives the per-layer numbers.  Exits 1 when a spread exceeds
its bound in BENCHMARK.json, or, with --against, when a median is worse
than the other file's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)


def run(workload, seed, trace):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not trace:
        summary = ROOT / ".bench_work" / f"{workload}-{seed}-trace0" / "summary.json"
        out["raw"] = json.loads(summary.read_text())["raw"]
    return out


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def worse_by(metric, new, old):
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()
    other = json.loads(args.against.read_text()) if args.against else None

    report = {
        "host": f"{platform.machine()}, {os.cpu_count()} cpus, Python {platform.python_version()}",
        "run_seconds": SPEC["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {},
    }
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [run(workload, seed, 0) for seed in SEEDS]
        traced = run(workload, SEEDS[0], 1)
        entry = {
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "end_to_end": {},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        ok &= entry["failed"] == 0
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            s = summarize([r["metrics"][name]["value"] for r in runs])
            raw = summarize([r["raw"][name] for r in runs])
            s["raw_median"], s["raw_spread"] = raw["median"], raw["spread"]
            entry["end_to_end"][name] = s
            line = (f"{workload:11s} {name:14s} median {s['median']:10.4f}"
                    f" (raw {s['raw_median']:10.4f})  spread {s['spread']:.3f} (bound {metric['bound']})")
            if s["spread"] > metric["bound"]:
                ok, line = False, line + "  SPREAD OVER BOUND"
            if other:
                old = other["workloads"][workload]["end_to_end"][name]["median"]
                worse = worse_by(metric, s["median"], old)
                line += f"  vs {old:.4f}: {worse:+.3f}"
                if worse > metric["bound"]:
                    ok, line = False, line + " WORSE THAN BOUND"
            print(line, flush=True)
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
