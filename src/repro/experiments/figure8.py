"""Figure 8: merge-benchmark execution time vs copy threads.

Fig. 8(a) shows the model's estimated times (Eqs. 1-5); Fig. 8(b)
shows the measured times. We reproduce both: the model curves come
from :mod:`repro.model.analytic`, the empirical curves from running
the buffered pipeline on the simulated node.
"""

from __future__ import annotations

from typing import Any

from repro.algorithms.merge_bench import (
    MergeBenchConfig,
    build_merge_bench,
    run_merge_bench,
)
from repro.errors import ConfigError
from repro.experiments.runner import ExperimentResult, SeriesSpec, sweep_map
from repro.model.analytic import predict
from repro.model.params import ModelParams
from repro.simknl.batch import PlanBatch, PlanBatchSpec
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode

DEFAULT_REPEATS = (1, 2, 4, 8, 16, 32, 64)
DEFAULT_COPY_THREADS = (1, 2, 4, 8, 16, 32)


def _figure8_model(r: int, p: int, total_threads: int) -> float:
    """The cell's closed-form half: Eqs. 1-5 at this thread split."""
    p_comp = total_threads - 2 * p
    if p_comp <= 0:
        raise ConfigError(
            f"copy_threads={p} leaves no compute threads: "
            f"total_threads={total_threads} - 2*{p} = {p_comp} "
            "(need total_threads > 2 * copy_threads)"
        )
    return predict(ModelParams(), p_comp, p, p, passes=r).t_total


def _figure8_cell(r: int, p: int, total_threads: int) -> tuple[float, float]:
    """One (repeats, copy-threads) grid cell: (model_s, empirical_s)."""
    model_t = _figure8_model(r, p, total_threads)
    node = KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))
    emp_t = run_merge_bench(
        node,
        MergeBenchConfig(
            repeats=r, copy_in_threads=p, total_threads=total_threads
        ),
    ).elapsed
    return model_t, emp_t


def _figure8_batch(r: int, p: int, total_threads: int) -> PlanBatch:
    model_t = _figure8_model(r, p, total_threads)
    node = KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))
    pipe = build_merge_bench(
        node,
        MergeBenchConfig(
            repeats=r, copy_in_threads=p, total_threads=total_threads
        ),
    )
    return PlanBatch(
        resources=tuple(node.resources()),
        plans=(pipe.lower(),),
        finish=lambda runs: (model_t, runs[0].elapsed),
    )


_figure8_cell.plan_batch = PlanBatchSpec(build=_figure8_batch)


def run_figure8(
    repeats: tuple[int, ...] = DEFAULT_REPEATS,
    copy_threads: tuple[int, ...] = DEFAULT_COPY_THREADS,
    total_threads: int = 256,
    jobs: int = 1,
    store: Any | None = None,
) -> ExperimentResult:
    """Model (8a) and empirical (8b) time curves."""
    cells = [
        (r, p, total_threads) for r in repeats for p in copy_threads
    ]
    rows = [
        {
            "repeats": r,
            "copy_threads": p,
            "model_s": model_t,
            "empirical_s": emp_t,
        }
        for (r, p, _), (model_t, emp_t) in zip(
            cells,
            sweep_map(
                _figure8_cell, cells, jobs=jobs, store=store
            ),
        )
    ]
    return ExperimentResult(
        experiment="figure8",
        title="Figure 8: merge benchmark time vs copy threads "
        "(model = 8a, empirical = 8b)",
        columns=["repeats", "copy_threads", "model_s", "empirical_s"],
        rows=rows,
        notes=[
            "empirical curves include pipeline fill/drain, which the "
            "closed-form model deliberately neglects"
        ],
    )


run_figure8.series_spec = SeriesSpec(
    "copy_threads", ("model_s", "empirical_s")
)
run_figure8.supports_jobs = True
run_figure8.supports_store = True
run_figure8.supports_replay = True
