"""Count-repeat check: every count metric must repeat exactly.

Runs the traced benchmark twice on one seed and once on a second seed,
for each workload, and fails if any count metric (or ratio of counts)
differs between the three runs::

    python3 e2ebench/countcheck.py --seconds 10 --seeds 1 2

Time metrics and ``trace.overhead_ratio`` are measurements, not counts,
and are not compared.
"""

from __future__ import annotations

import argparse

from noise import one_run

WORKLOADS = ("cli", "sweep", "service")


def is_count(name: str, unit: str) -> bool:
    return unit in ("count", "count/cycle") or (
        unit == "ratio" and name != "trace.overhead_ratio"
    )


def counts(workload: str, seed: int, seconds: float) -> dict:
    return {
        name: m["value"]
        for name, m in one_run(workload, seed, seconds, trace=1).items()
        if is_count(name, m["unit"])
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 2))
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args(argv)
    a, b = args.seeds
    bad = 0
    for workload in args.workload or WORKLOADS:
        runs = [counts(workload, s, args.seconds) for s in (a, a, b)]
        for name in sorted(runs[0]):
            values = [r[name] for r in runs]
            same = values[0] == values[1] == values[2]
            bad += not same
            mark = "ok  " if same else "DIFF"
            print(f"{mark} {workload:8s} {name:28s} "
                  + "  ".join(f"{v:.10g}" for v in values))
    print(f"{bad} count metrics differ" if bad else "all counts repeat")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
