"""Alternating A/B runs of the benchmark in two source checkouts.

    python3 tools/ab_bench.py PARENT CHANGE --workload W --seed N --pairs K

PARENT and CHANGE are the roots of two source checkouts.  Each of the K
pairs (K >= 2) runs the benchmark once in each checkout, one after the
other, the parent first in even pairs and the change first in odd ones, so
a drift of the machine's speed favours neither side.  A run is the one
perfbench/baseline.py makes: BENCHMARK.json's command, at its run_seconds,
untraced.  Every end-to-end metric of BENCHMARK.json is then printed per
side as its median and quartiles over the pairs, by baseline.py's summary
rule, with the change's wins: the pairs in which it was strictly better
than the parent.  The last line of stdout is the same summary as one JSON
object.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_baseline(checkout):
    """perfbench/baseline.py of checkout, whose run() runs in that checkout."""
    path = Path(checkout).resolve() / "perfbench" / "baseline.py"
    spec = importlib.util.spec_from_file_location("baseline", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASELINE = load_baseline(ROOT)


def summarize(pairs, metrics):
    """{metric: summary} over two or more pairs of (parent, change) run.py
    results, for each {"name", "better"} entry of metrics.  A summary holds
    both sides' baseline.summarize (median, q1, q3, spread, values), the
    change's wins out of the pairs, the difference of the medians (change -
    parent) and the parent's interquartile range; "failed" sums each side's
    failed case runs."""
    if len(pairs) < 2:
        raise ValueError("quartiles need at least two pairs")
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sides = {"parent": BASELINE.summarize(parent), "change": BASELINE.summarize(change)}
        out[name] = {
            **sides,
            "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "median_diff": sides["change"]["median"] - sides["parent"]["median"],
            "parent_iqr": sides["parent"]["q3"] - sides["parent"]["q1"],
        }
    out["failed"] = {"parent": sum(p["failed"] for p, _ in pairs),
                     "change": sum(c["failed"] for _, c in pairs)}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    runners = {side: load_baseline(getattr(args, side)) for side in ("parent", "change")}

    pairs = []
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        got = {side: runners[side].run(args.workload, args.seed, 0) for side in order}
        pairs.append((got["parent"], got["change"]))
        print(f"pair {k + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    summary = summarize(pairs, BASELINE.SPEC["end_to_end"])
    for name, s in summary.items():
        if name == "failed":
            continue
        for side in ("parent", "change"):
            print(f"{name:14s} {side:7s} median {s[side]['median']:11.6g}"
                  f"  q1 {s[side]['q1']:11.6g}  q3 {s[side]['q3']:11.6g}")
        print(f"{name:14s} change wins {s['wins']}/{s['pairs']}; median diff "
              f"{s['median_diff']:.6g}, parent IQR {s['parent_iqr']:.6g}")
    print(f"failed case runs: parent {summary['failed']['parent']}, "
          f"change {summary['failed']['change']}")
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
