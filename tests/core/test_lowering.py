"""Closed-form pipeline lowering, held to the plan and the reference loop.

:meth:`BufferedPipeline.lower` emits a sweep template and bytes row from
the chunk geometry alone. These tests draw pipelines over usage mode,
buffering, chunk count (1, 2, 3, many), a ragged last chunk, compute
passes including 0 (dead compute flows) and the copy-thread split, and
check that the closed form lowers exactly like the plan
:meth:`BufferedPipeline.prepare` builds, that run-wise evaluation equals
``Engine(batch_phases=False).run`` bit for bit, and that errors and
declines surface the reference path's exceptions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffering import BufferedPipeline
from repro.core.chunking import Chunker
from repro.core.kernel import StreamKernel
from repro.core.modes import UsageMode
from repro.errors import CapacityError, PlanError, SimulationError
from repro.simknl.batch import (
    PlanBatch,
    PlanBatchSpec,
    evaluate_plan_batch,
    lower_plan,
    run_lowered,
)
from repro.simknl.engine import Engine
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode
from repro.threads.pool import PoolSet
from repro.units import GiB, MiB

_NODES: dict[UsageMode, KNLNode] = {}


def node_for(mode: UsageMode) -> KNLNode:
    if mode not in _NODES:
        if mode is UsageMode.HYBRID:
            cfg = KNLNodeConfig(
                mode=MemoryMode.HYBRID, hybrid_cache_fraction=0.5
            )
        elif mode in (UsageMode.IMPLICIT, UsageMode.CACHE):
            cfg = KNLNodeConfig(mode=MemoryMode.CACHE)
        else:
            cfg = KNLNodeConfig(mode=MemoryMode.FLAT)
        _NODES[mode] = KNLNode(cfg)
    return _NODES[mode]


def make_pipe(
    mode: UsageMode,
    buffered: bool,
    chunks: int,
    chunk_bytes: int,
    passes: float,
    copy_in: int,
    copy_out: int,
    short_by: int = 0,
) -> BufferedPipeline:
    """A pipeline of ``chunks`` chunks whose last one is ``short_by``
    int64 elements short of ``chunk_bytes``."""
    node = node_for(mode)
    if mode in (UsageMode.FLAT, UsageMode.HYBRID):
        pools = PoolSet.split(
            node,
            compute=node.total_threads - copy_in - copy_out,
            copy_in=copy_in,
            copy_out=copy_out,
        )
    else:
        pools = PoolSet.compute_only(node)
    total = chunks * chunk_bytes - 8 * short_by
    return BufferedPipeline(
        node,
        mode,
        pools,
        Chunker(total, chunk_bytes),
        StreamKernel(passes=passes),
        buffered=buffered,
    )


pipelines = st.builds(
    make_pipe,
    mode=st.sampled_from(list(UsageMode)),
    buffered=st.booleans(),
    chunks=st.sampled_from([1, 2, 3, 17]),
    chunk_bytes=st.sampled_from([64 * MiB, 512 * MiB, GiB]),
    short_by=st.sampled_from([0, 1, 1000]),
    passes=st.sampled_from([0.0, 0.5, 1.0, 4.0]),
    copy_in=st.integers(min_value=1, max_value=32),
    copy_out=st.integers(min_value=1, max_value=32),
)


def reference(pipe: BufferedPipeline):
    engine = Engine(
        list(pipe.node.resources()), record_events=False, batch_phases=False
    )
    return engine.run(pipe.build_plan())


def assert_identical(got, want) -> None:
    assert got.elapsed == want.elapsed
    assert got.traffic == want.traffic
    assert got.phase_times == want.phase_times


@settings(max_examples=120, deadline=None)
@given(pipe=pipelines)
def test_closed_form_lowers_like_the_plan(pipe):
    closed = pipe.lower()
    planned = lower_plan(pipe.prepare())
    assert closed.sweep.key == planned.sweep.key
    assert closed.sweep.phases == planned.sweep.phases
    assert closed.row.dtype == planned.row.dtype == np.float64
    assert closed.row.tobytes() == planned.row.tobytes()


@settings(max_examples=120, deadline=None)
@given(pipe=pipelines)
def test_runwise_equals_reference_loop(pipe):
    low = pipe.lower()
    engine = Engine(list(pipe.node.resources()), record_events=False)
    (got,) = run_lowered(engine, low.sweep, low.row[None, :])
    assert_identical(got, reference(pipe))


def _cell(shape: tuple, short_by: int) -> PlanBatch:
    pipe = make_pipe(*shape, short_by)
    return PlanBatch(
        resources=tuple(pipe.node.resources()),
        plans=(pipe.lower(),),
        finish=lambda runs: runs[0],
    )


@settings(max_examples=40, deadline=None)
@given(
    mode=st.sampled_from(list(UsageMode)),
    buffered=st.booleans(),
    chunks=st.sampled_from([2, 3, 17]),
    passes=st.sampled_from([0.0, 1.0, 4.0]),
    copies=st.tuples(
        st.integers(min_value=1, max_value=32),
        st.integers(min_value=1, max_value=32),
    ),
    shorts=st.lists(
        st.integers(min_value=0, max_value=5000), min_size=1, max_size=5
    ),
)
def test_stacked_cells_equal_reference(
    mode, buffered, chunks, passes, copies, shorts
):
    """Cells differing only in the ragged last chunk stack into shared
    tensors (by template key) and still equal the reference per cell."""
    shape = (mode, buffered, chunks, 512 * MiB, passes, *copies)
    results, leftovers = evaluate_plan_batch(
        PlanBatchSpec(build=_cell), [(shape, s) for s in shorts]
    )
    assert leftovers == []
    for short_by, got in zip(shorts, results):
        assert_identical(got, reference(make_pipe(*shape, short_by)))


@pytest.mark.parametrize(
    "mode, chunk_bytes",
    [(UsageMode.FLAT, 6 * GiB), (UsageMode.HYBRID, 3 * GiB)],
)
def test_oversized_buffers_raise_the_same_capacity_error(mode, chunk_bytes):
    pipe = make_pipe(mode, True, 3, chunk_bytes, 1.0, 8, 8)
    with pytest.raises(CapacityError) as planned:
        pipe.prepare()
    with pytest.raises(CapacityError) as closed:
        pipe.lower()
    assert str(closed.value) == str(planned.value)
    assert pipe._buffers == []  # released on both paths


def test_zero_thread_copy_pool_raises_the_plan_error():
    pipe = make_pipe(UsageMode.FLAT, True, 3, GiB, 1.0, 8, 8)
    node = pipe.node
    pipe.pools = PoolSet.split(
        node, compute=node.total_threads - 8, copy_in=0, copy_out=8
    )
    with pytest.raises(PlanError) as planned:
        Engine(list(node.resources())).run(pipe.prepare())
    with pytest.raises(PlanError) as closed:
        pipe.lower()
    assert str(closed.value) == str(planned.value)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "rate, match",
    [
        (0.0, "starv"),          # starved: no positive rate
        (5e-324, "starvation"),  # b / r overflows: no finite step
    ],
)
@pytest.mark.parametrize("buffered", [True, False])
def test_declined_single_flow_runs_raise_the_reference_error(
    monkeypatch, rate, match, buffered
):
    """A singles run whose rates starve, or whose dynamic step never
    completes in finite time, declines; the cell then re-runs on the
    reference loop, which raises its own SimulationError."""
    monkeypatch.setattr(
        Engine, "_allocate", lambda self, live: [rate] * len(live)
    )
    shape = (UsageMode.FLAT, buffered, 1, GiB, 1.0, 8, 8)
    low = _cell(shape, 0).plans[0]
    engine = Engine(list(node_for(UsageMode.FLAT).resources()),
                    record_events=False)
    if buffered and rate > 0.0:
        # Static phases have no completion check: a tiny rate is a
        # (huge) finite-or-inf step time on both paths, not an error.
        (got,) = run_lowered(engine, low.sweep, low.row[None, :])
        assert_identical(got, reference(make_pipe(*shape)))
        return
    assert run_lowered(engine, low.sweep, low.row[None, :]) is None
    with pytest.raises(SimulationError, match=match):
        evaluate_plan_batch(PlanBatchSpec(build=_cell), [(shape, 0)])
