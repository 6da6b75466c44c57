"""Benchmarks of the cross-cell tensor sweep path.

Times the core lowering — :func:`run_lowered` over a pre-built
``(cells x live-flow-slots)`` tensor — against the warm persistent
pool fanning the same figure7-class cells across workers that rebuild
node + plan per cell. The acceptance bar: the tensor evaluation is at
least 10x faster than the pool, bit-identically.

Per-cell plan *construction* is deliberately outside that tensor-side
timed region, so :func:`test_bench_sweep_lowered` times the whole path
a sweep takes as well: the same 64 cells from node and pipeline through
:meth:`BufferedPipeline.lower` to one evaluated tensor
(:func:`evaluate_plan_batch`).
"""

from __future__ import annotations

import time

import pytest

from repro.core.buffering import BufferedPipeline
from repro.core.chunking import Chunker
from repro.core.kernel import StreamKernel
from repro.core.modes import UsageMode
from repro.experiments.pool import get_pool, shutdown_pool
from repro.simknl.batch import (
    PlanBatch,
    PlanBatchSpec,
    evaluate_plan_batch,
    lower_plans,
    run_lowered,
)
from repro.simknl.engine import Engine
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode
from repro.threads.pool import PoolSet
from repro.units import GiB, MiB

JOBS = 8
#: Shrinking by whole elements keeps every cell's chunk count — and
#: hence plan structure — identical; only the ragged final chunk varies.
CELLS = [(int(16 * GiB) - 8 * i,) for i in range(64)]


def _pipeline(nbytes: int) -> BufferedPipeline:
    node = KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))
    pools = PoolSet.split(
        node, compute=node.total_threads - 16, copy_in=8
    )
    return BufferedPipeline(
        node,
        UsageMode.FLAT,
        pools,
        Chunker(nbytes, int(512 * MiB)),
        StreamKernel(passes=4.0),
    )


def _cell(nbytes: int) -> float:
    """One pool-side cell: rebuild node + plan, run, return elapsed."""
    return _pipeline(nbytes).run().elapsed


def _build_lowered():
    plans = []
    engine = None
    for (nbytes,) in CELLS:
        pipe = _pipeline(nbytes)
        plans.append(pipe.prepare())
        if engine is None:
            engine = Engine(
                list(pipe.node.resources()), record_events=False
            )
    lowered, tensor = lower_plans(plans)
    return engine, lowered, tensor


@pytest.fixture(autouse=True, scope="module")
def _pool_lifetime():
    shutdown_pool()
    yield
    shutdown_pool()


def test_bench_sweep_tensor(benchmark):
    engine, lowered, tensor = _build_lowered()
    warm = run_lowered(engine, lowered, tensor)  # warm the allocate memo
    assert warm is not None
    results = benchmark(run_lowered, engine, lowered, tensor)
    assert [r.elapsed for r in results] == [r.elapsed for r in warm]


def _lowered_cell(nbytes: int) -> PlanBatch:
    pipe = _pipeline(nbytes)
    return PlanBatch(
        resources=tuple(pipe.node.resources()),
        plans=(pipe.lower(),),
        finish=lambda runs: runs[0].elapsed,
    )


def test_bench_sweep_lowered(benchmark):
    """Construction included: node, pipeline, closed-form lowering and
    one tensor evaluation for all 64 cells."""
    spec = PlanBatchSpec(build=_lowered_cell)
    engine, lowered, tensor = _build_lowered()
    want = [r.elapsed for r in run_lowered(engine, lowered, tensor)]
    results, leftovers = benchmark(evaluate_plan_batch, spec, CELLS)
    assert leftovers == []
    assert results == want


def test_bench_sweep_pool(benchmark):
    pool = get_pool(JOBS)
    pool.map(_cell, CELLS)  # warm: spawn workers outside the timed region
    out = benchmark.pedantic(
        lambda: pool.map(_cell, CELLS), rounds=3, iterations=1
    )
    assert len(out) == len(CELLS)


def test_tensor_at_least_10x_faster_than_pool():
    """The acceptance bar: evaluating the lowered sweep is >=10x faster
    than fanning the same cells across the warm persistent pool — and
    bit-identical to it."""
    engine, lowered, tensor = _build_lowered()
    batched = run_lowered(engine, lowered, tensor)
    assert batched is not None

    pool = get_pool(JOBS)
    pooled = pool.map(_cell, CELLS)  # warm
    assert [r.elapsed for r in batched] == pooled

    def best_of(fn, rounds=3):
        times = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    tensor_s = best_of(lambda: run_lowered(engine, lowered, tensor))
    pool_s = best_of(lambda: pool.map(_cell, CELLS))
    assert pool_s >= 10.0 * tensor_s, (
        f"pool {pool_s * 1e3:.1f}ms vs tensor {tensor_s * 1e3:.1f}ms "
        f"({pool_s / tensor_s:.1f}x)"
    )
