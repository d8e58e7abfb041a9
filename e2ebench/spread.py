"""Run-to-run spread of the end-to-end metrics.

    python3 e2ebench/spread.py --runs 10 --seconds 30 [--workloads a,b] [--out FILE]

Makes ``--runs`` benchmark runs of every workload, each with another seed
(1, 2, ...), alternating the workload order from one seed to the next.
For each metric it prints the median, the quartiles (``statistics.quantiles
(n=4)``) and the spread: the distance between the quartiles as a share of
the median, the figure each metric's bound in BENCHMARK.json is set from.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def one_run(workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run, exactly as ``run.py --workload`` makes
    it, driven from this process (so one round process at a time)."""
    with contextlib.redirect_stdout(io.StringIO()):
        rounds = run.run_rounds(workload, seed, seconds, False)
        return run.summarize(workload, rounds, False)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--out", default=None, help="also write every run as JSON")
    args = ap.parse_args()
    chosen = args.workloads.split(",")
    run.prepare()
    runs: dict[str, list[dict]] = {w: [] for w in chosen}
    for i in range(args.runs):
        seed = 1 + i
        for workload in chosen if i % 2 == 0 else chosen[::-1]:
            result = one_run(workload, seed, args.seconds)
            result["seed"] = seed
            runs[workload].append(result)
            print(f"seed {seed} {workload}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
    for workload, results in runs.items():
        print(f"\n{workload} ({len(results)} runs)")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:14s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {100 * (q3 - q1) / med:6.2f}%")
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"  failed share: {sorted(shares)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
