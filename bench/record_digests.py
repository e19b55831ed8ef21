#!/usr/bin/env python3
"""Record bench/digests.json: the sha256 of `table1` output and, per workload
and seed, of the concatenated exit codes and `--json` stdout of the seed's
prefix inputs.  Run it only when the benchmark's inputs change on purpose;
the digests lock the program's outputs, so a change that alters them fails
the benchmark.

    python3 bench/record_digests.py [--seeds 32]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run as R
import workloads as W


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=32, help="record seeds 0 .. N-1")
    args = ap.parse_args()
    sys.path.insert(0, str(R.ROOT / "src"))
    cli = R.fresh_import()
    work = R.ROOT / ".bench_work" / f"record-{os.getpid()}"
    out = {"table1": R.sha256(R.call(cli.main, ["table1"])[1]), "workloads": {}}
    try:
        for workload in W.WORKLOADS:
            table = out["workloads"][workload] = {}
            for seed in range(args.seeds):
                tally = R.Tally(W.PREFIX[workload])
                R.run_prefix(cli, R.Runner(workload, seed, work / f"{workload}-{seed}"), tally)
                if tally.failed:
                    print("\n".join(tally.first_failures), file=sys.stderr)
                    return 1
                table[str(seed)] = tally.digest.hexdigest()
    finally:
        R.remove_work(work)
    R.DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
