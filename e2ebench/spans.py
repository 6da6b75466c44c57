"""Per-layer spans installed from outside the program under test.

:func:`install` wraps the public calls of each ``repro`` layer (see
``LAYERS``) with a span that attributes wall time to whichever layer is
on top of the calling thread's span stack. A layer's *self* time is
therefore its span time minus the time of nested spans of other layers,
and the self times of all layers plus the time spent outside any span
(``other``) add up to the operation's wall time by construction; the
benchmark checks that identity on every traced run.

The program never imports this module. The benchmark's child processes
call :func:`install` after importing ``repro`` and before running the
traced operations.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

#: Tenant the service workload uses for set-up jobs. Their spans are not
#: recorded, so the traced totals cover the timed jobs only.
WARM_TENANT = "e2ebench-warm"

#: ``(layer, module, qualified name, count)`` of every wrapped call.
#: ``count`` names the counter bumped once per outermost span of the
#: layer (nested same-layer calls are one call), or is None.
LAYERS = (
    ("runner", "repro.experiments.runner", "sweep_map", None),
    ("runner", "repro.experiments.runner", "config_hash", None),
    ("plan", "repro.algorithms.mlm_sort", "mlm_sort_plan", "plan"),
    ("plan", "repro.algorithms.parallel_sort", "gnu_sort_plan", "plan"),
    ("plan", "repro.algorithms.merge_bench", "build_merge_bench", None),
    ("plan", "repro.core.buffering", "BufferedPipeline.prepare", "plan"),
    ("plan", "repro.core.buffering", "BufferedPipeline.build_plan", "plan"),
    ("structure", "repro.simknl.engine", "Plan.structure", "structure.calls"),
    ("structure", "repro.simknl.engine", "Plan.compile", "structure.calls"),
    ("batch", "repro.simknl.batch", "evaluate_plan_batch", None),
    ("batch", "repro.simknl.batch", "lower_plans", None),
    ("batch", "repro.simknl.batch", "run_lowered", None),
    ("batch", "repro.simknl.batch", "batched_dynamic", None),
    ("engine", "repro.simknl.engine", "Engine.run", "engine.runs"),
    ("store_get", "repro.experiments.store", "ResultStore.get", None),
    ("store_get", "repro.experiments.store", "ResultStore.probe", None),
    ("store_put", "repro.experiments.store", "ResultStore.put", "store.puts"),
    ("render", "repro.experiments.report", "render_table", None),
    ("render", "repro.experiments.report", "to_csv", None),
    ("service", "repro.experiments.service", "SweepService.submit", None),
    (
        "service", "repro.experiments.service",
        "SweepService.run_job_blocking", None,
    ),
    ("client", "repro.experiments.service", "result_from_wire", None),
    ("pool", "repro.experiments.pool", "PersistentPool.map", "pool.maps"),
)

class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[str] = []
        self.t_last = 0.0
        self.muted = False


class Collector:
    """Span stacks per thread; self times and counts per layer."""

    def __init__(self) -> None:
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def _switch(self, st: _ThreadState, now: float) -> None:
        if st.stack:
            with self._lock:
                self.self_s[st.stack[-1]] += now - st.t_last
        st.t_last = now

    def enter(self, layer: str) -> bool:
        """Push ``layer``. Returns whether this span is the outermost
        of a run of same-layer spans, i.e. whether it counts as a call."""
        st = self._local
        self._switch(st, time.perf_counter())
        outer = not st.stack or st.stack[-1] != layer
        st.stack.append(layer)
        return outer

    def exit(self) -> None:
        st = self._local
        self._switch(st, time.perf_counter())
        st.stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    @property
    def muted(self) -> bool:
        return self._local.muted

    def begin_op(self) -> float:
        """Open a traced operation on this thread. Until :meth:`end_op`,
        time outside any span is attributed to ``other``."""
        st = self._local
        if st.stack:
            raise RuntimeError(f"begin_op inside open spans {st.stack}")
        st.t_last = time.perf_counter()
        st.stack.append("other")
        return st.t_last

    def end_op(self, t_begin: float) -> float:
        """Close the operation opened at ``t_begin``; returns its wall."""
        st = self._local
        now = time.perf_counter()
        self._switch(st, now)
        if st.stack != ["other"]:
            raise RuntimeError(f"unbalanced spans at end of op: {st.stack}")
        st.stack.pop()
        return now - t_begin

    def snapshot(self) -> dict:
        with self._lock:
            return {"self_s": dict(self.self_s), "counts": dict(self.counts)}

    def reset(self) -> None:
        with self._lock:
            self.self_s.clear()
            self.counts.clear()


def _span(col: Collector, layer: str, fn, after=None, mute=None):
    """``fn`` inside a ``layer`` span.

    ``after(args, kwargs, result, outer, elapsed)`` records counts once
    the span has closed. ``mute(args, kwargs)`` true runs the call, and
    every span nested in it, unrecorded (service set-up jobs).
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        st = col._local
        if st.muted:
            return fn(*args, **kwargs)
        if mute is not None and mute(args, kwargs):
            st.muted = True
            try:
                return fn(*args, **kwargs)
            finally:
                st.muted = False
        t0 = time.perf_counter()
        outer = col.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            col.exit()
        if after is not None:
            after(args, kwargs, result, outer, time.perf_counter() - t0)
        return result

    return wrapper


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module global bound to ``original`` (its
    defining module and each ``from ... import`` of it) at
    ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(col: Collector) -> None:
    """Wrap every call in ``LAYERS`` and every experiment driver."""
    import repro.cli  # noqa: F401  (loads the layer modules)
    import repro.experiments.pool  # noqa: F401
    import repro.experiments.service  # noqa: F401
    from repro.errors import StoreMissError
    from repro.experiments import runner

    special = {
        "sweep_map": _after_sweep_map(col),
        "evaluate_plan_batch": _after_batch(col),
        "ResultStore.get": _after_store_read(col),
        "ResultStore.probe": _after_store_read(col),
        "SweepService.run_job_blocking": _after_job(col),
    }
    for layer, module, qualname, count in LAYERS:
        owner = importlib.import_module(module)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = getattr(owner, attr)
        after = special.get(qualname) or _after_count(col, count)
        mute = None
        if qualname == "SweepService.submit":
            mute = _warm_submit
        elif qualname == "SweepService.run_job_blocking":
            mute = _warm_job
        wrapped = _span(col, layer, fn, after=after, mute=mute)
        if qualname == "sweep_map":
            wrapped = _memo_growth(col, runner, wrapped)
        if path:
            setattr(owner, attr, wrapped)
        else:
            _rebind(fn, wrapped)
    _wrap_drivers(col, runner, StoreMissError)


def _wrap_drivers(col: Collector, runner, miss_error) -> None:
    """Experiment drivers form the ``driver`` layer. A driver call made
    inside a replay session that misses the store is the service's
    wasted replay-first attempt."""
    import repro.experiments as experiments

    wrapped = {
        id(fn): _driver_span(col, fn, runner, miss_error)
        for fn in experiments.ALL_EXPERIMENTS.values()
    }
    for table in (
        experiments.ALL_EXPERIMENTS,
        experiments.PAPER_EXPERIMENTS,
        experiments.EXTENSION_EXPERIMENTS,
    ):
        for name, fn in list(table.items()):
            table[name] = wrapped[id(fn)]
    for fn in list(experiments.ALL_EXPERIMENTS.values()):
        _rebind(fn.__wrapped__, fn)


def _driver_span(col: Collector, fn, runner, miss_error):
    def after(args, kwargs, result, outer, elapsed):
        if runner._REPLAY.get() is not None:
            col.count("service.replay_attempts")
            col.count("service.replay_hits")

    span = _span(col, "driver", fn, after=after)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return span(*args, **kwargs)
        except miss_error:
            if not col.muted and runner._REPLAY.get() is not None:
                col.count("service.replay_attempts")
                col.count("service.replay_miss_s", time.perf_counter() - t0)
            raise

    return wrapper


# ---- counters ---------------------------------------------------------------


def _after_count(col: Collector, name: str | None):
    if name is None:
        return None

    def after(args, kwargs, result, outer, elapsed):
        if not outer:
            return
        if name == "plan":
            col.count("plan.plans")
            col.count("plan.phases", len(getattr(result, "phases", ())))
        else:
            col.count(name)

    return after


def _after_batch(col: Collector):
    def after(args, kwargs, result, outer, elapsed):
        cells = args[1] if len(args) > 1 else kwargs["cells"]
        col.count("batch.cells", len(cells))
        col.count("batch.declined", len(result[1]))

    return after


def _after_store_read(col: Collector):
    def after(args, kwargs, result, outer, elapsed):
        col.count("store.gets")
        if (result[0] if isinstance(result, tuple) else result):
            col.count("store.hits")

    return after


def _after_sweep_map(col: Collector):
    def after(args, kwargs, result, outer, elapsed):
        if outer:
            col.count("runner.cells", len(result))

    return after


def _after_job(col: Collector):
    def after(args, kwargs, result, outer, elapsed):
        col.count("service.jobs")
        col.count("service.job_s", elapsed)

    return after


def _memo_growth(col: Collector, runner, span):
    """Count ``runner.cells_computed``: the growth of the in-process
    memo, which every computed and every store-served cell enters, less
    the store hits of the call. Replays compute nothing."""

    @functools.wraps(span)
    def wrapper(*args, **kwargs):
        if col.muted or runner._REPLAY.get() is not None:
            return span(*args, **kwargs)
        memo = kwargs.get("memo")
        if memo is None and len(args) > 3:
            memo = args[3]
        if memo is None:
            memo = runner._SWEEP_MEMO
        before = len(memo)
        hits = col.counts.get("store.hits", 0)
        result = span(*args, **kwargs)
        hits = col.counts.get("store.hits", 0) - hits
        col.count("runner.cells_computed", len(memo) - before - hits)
        return result

    return wrapper


def _warm_submit(args, kwargs):
    tenant = kwargs.get("tenant", args[1] if len(args) > 1 else None)
    return tenant == WARM_TENANT


def _warm_job(args, kwargs):
    job = args[1] if len(args) > 1 else kwargs["job"]
    return job.tenant == WARM_TENANT
