"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds result files written by ``perfbench/run.py`` (by
default under ``.bench_build/perfbench/results``), searched recursively.
For every workload and metric it prints the median and quartiles of both
sets.  An end-to-end metric whose AFTER median is worse than the BEFORE
median by more than its bound in ``BENCHMARK.json`` is flagged WORSE, or
UNRESOLVED when the BEFORE runs alone already spread wider than the bound.
The exit code is 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory: str) -> dict[tuple[str, int], list[dict]]:
    """Result files under ``directory`` keyed by (workload, trace)."""
    runs: dict[tuple[str, int], list[dict]] = {}
    for root, _, files in os.walk(directory):
        for name in sorted(files):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                run = json.load(fh)
            runs.setdefault((run["workload"], run["trace"]), []).append(run)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(before: list[float], after: list[float], better: str,
            bound: float) -> str:
    q1, med, q3 = quartiles(before)
    _, after_med, _ = quartiles(after)
    if med == 0:
        return ""
    worse = (after_med - med) / med
    if better == "higher":
        worse = -worse
    if worse <= bound:
        return ""
    return "UNRESOLVED" if (q3 - q1) / med > bound else "WORSE"


def compare(before_dir: str, after_dir: str, spec: dict) -> int:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    before, after = load_runs(before_dir), load_runs(after_dir)
    flagged = 0
    for key in sorted(set(before) & set(after)):
        workload, trace = key
        print(f"== {workload} ({'traced' if trace else 'untraced'}): "
              f"{len(before[key])} before, {len(after[key])} after")
        names = sorted({n for r in before[key] + after[key] for n in r["metrics"]})
        for name in names:
            b = [r["metrics"][name] for r in before[key] if name in r["metrics"]]
            a = [r["metrics"][name] for r in after[key] if name in r["metrics"]]
            if not a or not b:
                continue
            flag = ""
            if name in bounds and not trace:
                flag = verdict(b, a, bounds[name]["better"],
                               bounds[name]["bound"])
            flagged += bool(flag)
            bq, aq = quartiles(b), quartiles(a)
            change = (aq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            print(f"  {name:30s} before {bq[1]:<11.5g} [{bq[0]:.5g}, {bq[2]:.5g}]"
                  f"  after {aq[1]:<11.5g} [{aq[0]:.5g}, {aq[2]:.5g}]"
                  f"  {change:+.1%} {flag}")
    return 1 if flagged else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return compare(args.before, args.after, spec)


if __name__ == "__main__":
    sys.exit(main())
