"""Noise report: run one workload N times and summarise every metric.

    python3 e2ebench/noise.py --workload sweep --runs 10 --seconds 36

Run ``i`` uses seed ``seeds[i % len(seeds)]`` (default: a new seed per
run, 1..N). For each metric the report prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``), min, max
and the spread: the distance between the quartiles as a share of the
median, which is what the bounds in ``BENCHMARK.json`` are set against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = str(Path(__file__).resolve().parent / "run.py")


def one_run(
    workload: str, seed: int, seconds: float, trace: int = 0
) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"seed {seed}: run not correct\n{proc.stderr}")
    return result["metrics"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--seeds", type=int, nargs="+")
    args = parser.parse_args(argv)
    seeds = args.seeds or list(range(1, args.runs + 1))
    runs = []
    for i in range(args.runs):
        seed = seeds[i % len(seeds)]
        t0 = time.perf_counter()
        runs.append(one_run(args.workload, seed, args.seconds))
        print(f"run {i + 1}/{args.runs} seed {seed} done in "
              f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    print(f"{args.workload}: {args.runs} runs of {args.seconds:g} s, "
          f"seeds {seeds[:args.runs]}")
    print(f"{'metric':24s} {'unit':6s} {'median':>11s} {'q1':>11s} "
          f"{'q3':>11s} {'min':>11s} {'max':>11s} {'spread':>7s}")
    for name, first in runs[0].items():
        values = [r[name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:24s} {first['unit']:6s} {med:11.6g} {q1:11.6g} "
              f"{q3:11.6g} {min(values):11.6g} {max(values):11.6g} "
              f"{spread:7.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
