#!/usr/bin/env python3
"""Run every solution-family instance over the standard parameter grid
through the same checks as `semidual verify`, and print a Bianchi-type
census.

Usage: python scripts/sweep_families.py [--skip-rank-one]
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from semidual.cli import build_report
from semidual.lie import so3, so21
from semidual.solutions import standard_sweep


def describe(inst):
    params = ", ".join(
        f"{k}={v}" if not isinstance(v, tuple) else
        f"{k}=({','.join(str(x) for x in v)})"
        for k, v in inst.params.items()
    )
    sig = "euclidean" if inst.algebra.metric[1, 1] == 1 else "lorentzian"
    return f"{inst.family.value:13s} {sig:10s} lambda={str(inst.lam):4s} {params}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--skip-rank-one", action="store_true",
                        help="restrict to the families of the summary table")
    args = parser.parse_args()

    e, l = so3(), so21()
    census = Counter()
    for inst in standard_sweep(e, l, include_rank_one=not args.skip_rank_one):
        name = "so3" if inst.algebra is e else "so21"
        rep = build_report(name, inst.algebra, inst.F, inst.lam)
        label = rep.classification.label if rep.classification else "-"
        expected = inst.expected_bianchi.label
        ok = rep.passed and label == expected
        census[label] += 1
        status = "ok" if ok else "MISMATCH"
        print(f"{describe(inst):70s} -> {label:4s} (expected {expected:4s}) {status}")
        if not ok:
            return 1
    print()
    print("bianchi census:", dict(sorted(census.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
