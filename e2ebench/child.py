"""Program-side processes of the benchmark.

Run with ``src`` on ``PYTHONPATH``, as ``run.py`` does::

    python child.py worker               # in-process rounds over stdin/stdout
    python child.py warm-store DIR       # fill DIR as `repro-knl X --store`
    python child.py cli OUT -- ARGV...   # traced `repro-knl ARGV`
    python child.py serve OUT -- ARGV... # traced `repro-knl serve ARGV`

``worker`` reads one JSON request per line and answers one JSON line:

* ``{"op": "round", "runs": [[driver, kwargs], ...], "clear": bool}``
  runs the drivers in order and renders each as the CLI prints it,
  after clearing the sweep memo when ``clear``; it answers the round's
  wall time, the SHA-256 of each rendered output and, once tracing is
  on, the round's per-layer totals.
* ``{"op": "oracle", "runs": [...]}`` answers the digests of the same
  drivers run on the reference engine loop (inside a telemetry
  session), with the memo cleared before and after.
* ``{"op": "trace"}`` installs the spans of ``spans.py``.
* ``{"op": "exit"}`` ends the process.

The traced ``cli`` and ``serve`` modes write their per-layer totals as
JSON to ``OUT`` when the command returns.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def digest(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def cli_text(result) -> str:
    """What `repro-knl <artifact> --csv -` prints for ``result``."""
    from repro.experiments.report import render_table, to_csv

    return render_table(result) + "\n\n" + to_csv(result)


def driver_kwargs(kwargs: dict) -> dict:
    """JSON kwargs from ``inputs.py`` to driver arguments."""
    from repro.algorithms.costs import SortCostModel

    out = dict(kwargs)
    if "cost" in out:
        base = SortCostModel()
        out["cost"] = base.replace(**{
            rate: getattr(base, rate) * factor
            for rate, factor in out["cost"].items()
        })
    if "mcdram_scales" in out:
        out["mcdram_scales"] = tuple(out["mcdram_scales"])
    return out


def worker() -> int:
    from repro.experiments import ALL_EXPERIMENTS, runner
    from repro.telemetry import telemetry_session

    def rendered(runs):
        return [
            cli_text(ALL_EXPERIMENTS[name](**driver_kwargs(kw)))
            for name, kw in runs
        ]

    def run_round(runs, clear):
        if clear:
            runner._SWEEP_MEMO.clear()
        if col is None:
            t0 = time.perf_counter()
            texts = rendered(runs)
            wall = time.perf_counter() - t0
            trace = None
        else:
            col.reset()
            t0 = col.begin_op()
            try:
                texts = rendered(runs)
            finally:
                wall = col.end_op(t0)
            trace = col.snapshot()
        return {
            "wall": wall,
            "digests": [digest(t) for t in texts],
            "trace": trace,
        }

    col = None
    out = sys.stdout
    out.write(json.dumps({"ready": True}) + "\n")
    out.flush()
    for line in sys.stdin:
        req = json.loads(line)
        op = req["op"]
        if op == "exit":
            break
        if op == "trace":
            col = spans.Collector()
            spans.install(col)
            reply = {}
        elif op == "round":
            try:
                reply = run_round(req["runs"], req["clear"])
            except Exception as exc:  # a failed operation, not a crash
                reply = {"error": f"{type(exc).__name__}: {exc}"}
        elif op == "oracle":
            runner._SWEEP_MEMO.clear()
            try:
                with telemetry_session():
                    texts = rendered(req["runs"])
                reply = {"digests": [digest(t) for t in texts]}
            except Exception as exc:
                reply = {"error": f"{type(exc).__name__}: {exc}"}
            runner._SWEEP_MEMO.clear()
        else:
            raise SystemExit(f"unknown op {op!r}")
        out.write(json.dumps(reply) + "\n")
        out.flush()
    return 0


def warm_store(root: str) -> int:
    """Fill a result store the way `repro-knl <artifact> --store DIR`
    does for every replayable artifact, in one process."""
    from repro.experiments import ALL_EXPERIMENTS
    from inputs import REPLAYABLE

    for name in REPLAYABLE:
        ALL_EXPERIMENTS[name](store=root)
    return 0


def traced(out_path: str, argv: list[str]) -> int:
    """`repro-knl ARGV` with spans; totals go to ``out_path``."""
    col = spans.Collector()
    t0 = col.begin_op()
    col.enter("import")
    import repro.cli

    col.exit()
    spans.install(col)
    code = repro.cli.main(argv)
    wall = col.end_op(t0)
    snap = col.snapshot()
    snap["wall"] = wall
    Path(out_path).write_text(json.dumps(snap))
    return code


def traced_server(out_path: str, argv: list[str]) -> int:
    """`repro-knl serve ARGV` with spans. Server-side spans are not
    operations: only their self times and counts are recorded."""
    col = spans.Collector()
    import repro.cli

    spans.install(col)
    code = repro.cli.main(argv)
    Path(out_path).write_text(json.dumps(col.snapshot()))
    return code


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "worker":
        return worker()
    if mode == "warm-store":
        return warm_store(argv[1])
    if mode in ("cli", "serve"):
        out_path, sep, *rest = argv[1:]
        if sep != "--":
            raise SystemExit("usage: child.py cli|serve OUT -- ARGV...")
        run = traced if mode == "cli" else traced_server
        return run(out_path, rest)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
