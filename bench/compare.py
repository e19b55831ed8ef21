#!/usr/bin/env python3
"""Compare two sets of benchmark records (files written by `run.py --out`).

    python3 bench/compare.py parent.jsonl change.jsonl

Records are paired by (workload, seed, trace).  A pair whose input
properties differ does not compare: the script names it and exits 2.
Otherwise it prints, per workload and metric, each side's median and
quartiles, the ratio of medians, and the share of pairs the second side
wins by the metric's direction in BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def load(path):
    with open(path) as fh:
        return {(r["workload"], r["seed"], r["trace"]): r for r in map(json.loads, fh)}


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    keys = sorted(a.keys() & b.keys())
    refused = [k for k in keys if a[k]["properties"] != b[k]["properties"]]
    for k in refused:
        print(f"refused {k}: {a[k]['properties']} != {b[k]['properties']}", file=sys.stderr)
    if refused or not keys:
        return 2
    for workload in sorted({k[0] for k in keys}):
        pairs = [(a[k]["measured"], b[k]["measured"]) for k in keys if k[0] == workload]
        for name, better in BETTER.items():
            got = [(x[name], y[name]) for x, y in pairs if name in x and name in y]
            if not got:
                continue
            xs, ys = [x for x, _ in got], [y for _, y in got]
            wins = sum((y > x) if better == "higher" else (y < x) for x, y in got)
            qa, qb = quartiles(xs), quartiles(ys)
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            print(f"{workload:12s} {name:64s} n={len(got):2d} "
                  f"A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  "
                  f"B/A {ratio:.4f}  B wins {wins}/{len(got)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
