"""Discrete-event execution of flow plans.

A :class:`Plan` is an ordered list of :class:`Phase` objects separated
by barriers: a phase begins only when its predecessor has fully
completed. Within a phase all flows run concurrently and share
bandwidth via the max-min fair allocator; the phase ends when every
flow has moved its bytes. This directly realizes the paper's
``T_step = max(T_copyin, T_comp, T_copyout)`` pipelined-step semantics
(Fig. 2) while also capturing the second-order effect the closed-form
model ignores: when one pool finishes early, the remaining pools speed
up because bandwidth is re-shared.

The engine accumulates per-resource traffic counters so experiments can
report DDR/MCDRAM traffic (used for the Bender et al. corroboration of
the ~2.5x DDR-traffic reduction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro.errors import PlanError, SimulationError
from repro.faults import FaultInjector, FaultKind
from repro.simknl.flows import Flow, Resource, allocate_rates
from repro.telemetry import names as _tn
from repro.telemetry import runtime as _tm

_EPS = 1e-12

#: Minimum run of structurally identical phases worth batching.
#: Singletons stay on the reference path — the array setup would cost
#: more than the loop it replaces.
_MIN_GROUP = 2


@dataclass
class Phase:
    """A barrier-delimited set of concurrent flows.

    Parameters
    ----------
    name:
        Display name, e.g. ``"step 3"``.
    flows:
        Flows that run concurrently during this phase.
    static_rates:
        When True, bandwidth shares are allocated once at phase start
        and held until the barrier: the phase lasts
        ``max(bytes / rate)`` over its flows. This models OpenMP-style
        pools whose threads keep their cores (and memory pipelines)
        for the whole step, spinning at the barrier — the paper's
        ``T_step = max(T_copyin, T_comp, T_copyout)``. When False
        (default), a flow that drains early releases its bandwidth and
        the remaining flows speed up (max-min resharing).
    """

    name: str
    flows: list[Flow] = field(default_factory=list)
    static_rates: bool = False

    def validate(self) -> None:
        """Raise :class:`PlanError` if the phase is malformed."""
        if not self.flows:
            raise PlanError(f"phase {self.name!r} has no flows")
        for f in self.flows:
            if f.bytes_total > 0 and f.rate_cap <= 0:
                raise PlanError(
                    f"phase {self.name!r}: flow {f.name!r} has bytes to "
                    "move but zero rate capacity"
                )

    @property
    def total_bytes(self) -> float:
        """Sum of logical bytes over all flows in the phase."""
        return sum(f.bytes_total for f in self.flows)


@dataclass
class _CompiledGroup:
    """A run of consecutive ``static_rates`` phases sharing a flow
    *structure* — identical live-flow signatures, only ``bytes_total``
    varying — which is exactly the triple-buffered steady state the
    Section 3 pipeline emits. The group can be solved with one
    water-filling allocation and evaluated with array ops.

    Attributes
    ----------
    start / count:
        Phase-index range ``[start, start + count)`` in the plan.
    flows:
        Live-flow template (the first phase's live flows, positionally
        representative of every phase in the group).
    bytes_matrix:
        ``(count, len(flows))`` float64 array of each phase's live-flow
        byte demands, snapshotted at compile time.
    resource_cols:
        Per-resource ``(name, columns, multipliers)`` triples: which
        flow columns touch the resource (in flow order) and with what
        demand multiplier.
    """

    start: int
    count: int
    flows: list[Flow]
    bytes_matrix: np.ndarray
    resource_cols: list[tuple[str, list[int], np.ndarray]]


def _compile_group(start: int, phases: list[Phase], lives: list[list[Flow]]) -> _CompiledGroup:
    """Build the arrays for one structurally identical phase run."""
    flows = lives[0]
    bytes_matrix = np.array(
        [[f.bytes_total for f in live] for live in lives], dtype=np.float64
    )
    resource_cols: list[tuple[str, list[int], np.ndarray]] = []
    seen: dict[str, list[int]] = {}
    for j, f in enumerate(flows):
        for name in f.resources:
            seen.setdefault(name, []).append(j)
    for name, cols in seen.items():
        mults = np.array(
            [flows[j].resources[name] for j in cols], dtype=np.float64
        )
        resource_cols.append((name, cols, mults))
    return _CompiledGroup(start, len(phases), flows, bytes_matrix, resource_cols)


@dataclass
class Plan:
    """An ordered, barrier-separated sequence of phases."""

    name: str
    phases: list[Phase] = field(default_factory=list)
    _compiled: list | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _compiled_key: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _structure: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _structure_key: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def add(self, phase: Phase) -> "Plan":
        """Append a phase and return self (chainable)."""
        self.phases.append(phase)
        self._compiled = None
        return self

    def validate(self) -> None:
        """Validate every contained phase."""
        for p in self.phases:
            p.validate()

    @property
    def total_bytes(self) -> float:
        """Sum of logical bytes over all phases."""
        return sum(p.total_bytes for p in self.phases)

    def compile(self, force: bool = False) -> list:
        """Segment the plan for batched evaluation; cached per phase list.

        Returns a list of segments, each one of

        * ``("ref", lo, hi)`` — a phase-index range for the per-phase
          reference loop;
        * ``("group", _CompiledGroup)`` — a run of ``>= 2`` consecutive
          ``static_rates`` phases with identical live-flow signatures
          that :meth:`Engine.run` can evaluate with one allocation and
          NumPy array ops;
        * ``("dyn", _CompiledGroup)`` — the same, for dynamic
          (``static_rates=False``) phases, evaluated with the segmented
          event-driven batch in :mod:`repro.simknl.batch` (the
          ``double`` strategy's inner steps form such runs).

        The compilation is cached and reused while the plan's phase
        list is unchanged (``add()`` invalidates it); byte demands are
        snapshotted at compile time, so callers that mutate a phase's
        flows in place must recompile with ``force=True``.
        """
        key = tuple(map(id, self.phases))
        if (
            not force
            and self._compiled is not None
            and self._compiled_key == key
        ):
            return self._compiled
        segments: list = []
        ref_lo: int | None = None
        run_lives: list[list[Flow]] = []
        run_start = 0
        run_key: tuple | None = None

        def flush_run() -> None:
            nonlocal ref_lo, run_lives, run_key
            if len(run_lives) >= _MIN_GROUP:
                if ref_lo is not None:
                    segments.append(("ref", ref_lo, run_start))
                    ref_lo = None
                segments.append(
                    (
                        "group" if run_key[0] else "dyn",
                        _compile_group(
                            run_start,
                            self.phases[
                                run_start:run_start + len(run_lives)
                            ],
                            run_lives,
                        ),
                    )
                )
            elif run_lives and ref_lo is None:
                ref_lo = run_start
            run_lives = []
            run_key = None

        for index, phase in enumerate(self.phases):
            phase_key: tuple | None = None
            live = [f for f in phase.flows if f.bytes_total > 0]
            if live:
                phase_key = (
                    phase.static_rates,
                    tuple(f.signature for f in live),
                )
            if phase_key is None:
                flush_run()
                if ref_lo is None:
                    ref_lo = index
                run_start = index + 1
                continue
            if phase_key != run_key:
                flush_run()
                run_start = index
                run_key = phase_key
            run_lives.append(live)
        flush_run()
        if ref_lo is not None:
            segments.append(("ref", ref_lo, len(self.phases)))
        self._compiled = segments
        self._compiled_key = key
        return segments

    def structure(self, force: bool = False) -> tuple:
        """Per-phase ``(static_rates, live-flow signatures)`` tuple.

        Two plans with equal structures differ only in byte demands
        (``bytes_total`` per flow). Cross-cell batching no longer uses
        it — :func:`repro.simknl.batch.run_batch` and
        ``evaluate_plan_batch`` group by ``LoweredSweep.key`` — and it
        is kept only because the end-to-end benchmark's span table
        wraps it; delete it with that span. Cached like
        :meth:`compile`; liveness (``bytes_total > 0``)
        is snapshotted at first call, so recompute with ``force=True``
        after mutating flow byte demands in place.
        """
        key = tuple(map(id, self.phases))
        if (
            not force
            and self._structure is not None
            and self._structure_key == key
        ):
            return self._structure
        structure = tuple(
            (
                phase.static_rates,
                tuple(
                    f.signature for f in phase.flows if f.bytes_total > 0
                ),
            )
            for phase in self.phases
        )
        self._structure = structure
        self._structure_key = key
        return structure


@dataclass
class RunResult:
    """Outcome of executing a plan.

    Attributes
    ----------
    elapsed:
        Simulated wall-clock seconds.
    traffic:
        Physical bytes moved per resource name.
    phase_times:
        Per-phase elapsed seconds, in plan order.
    events:
        ``(time, description)`` trace entries (flow completions).
    faults:
        Human-readable fault/degradation entries, in occurrence order
        (empty when no injector is attached).
    """

    elapsed: float
    traffic: dict[str, float]
    phase_times: list[float]
    events: list[tuple[float, str]] = field(default_factory=list)
    faults: list[str] = field(default_factory=list)

    def traffic_gb(self, resource: str) -> float:
        """Traffic on ``resource`` in decimal GB."""
        return self.traffic.get(resource, 0.0) / 1e9


class Engine:
    """Executes plans against a fixed set of resources.

    Parameters
    ----------
    resources:
        The shared bandwidth resources (devices, NoC, ...).
    record_events:
        When True, flow-completion events are recorded in the result
        trace. Disable for large sweeps to save memory.
    injector:
        Optional :class:`~repro.faults.FaultInjector`. At each phase
        boundary the engine asks it for fault events and applies the
        ones it owns: bandwidth degradations scale the named resource
        (the next water-filling solve then re-shares the remaining
        bandwidth — the "re-solve on degradation" semantics) and flow
        stalls extend the phase. Other kinds are logged for the layers
        that own them (heap, pools, resilient pipeline).
    """

    def __init__(
        self,
        resources: Iterable[Resource],
        record_events: bool = True,
        injector: FaultInjector | None = None,
        memoize_rates: bool = True,
        batch_phases: bool = True,
    ) -> None:
        self.resources: dict[str, Resource] = {}
        for r in resources:
            if r.name in self.resources:
                raise PlanError(f"duplicate resource {r.name!r}")
            self.resources[r.name] = r
        self._nominal: dict[str, Resource] = dict(self.resources)
        self.record_events = record_events
        self.injector = injector
        #: Compiled static-phase groups may be evaluated with NumPy
        #: array ops (one water-filling solve per group). False keeps
        #: every phase on the per-phase reference loop — the property
        #: tests hold the two bit-identical.
        self.batch_phases = batch_phases
        #: Cumulative count of groups evaluated on the batched path
        #: (observability + the fallback tests).
        self.batched_groups = 0
        #: Cumulative count of plans evaluated via the cross-cell
        #: tensor path (:meth:`run_batch`); sequential fallbacks do
        #: not count.
        self.batched_plans = 0
        #: Water-filling solutions keyed by (resource, live-flow)
        #: signature. Sweeps re-run structurally identical phases
        #: thousands of times; the solve is skipped for every repeat.
        #: ``memoize_rates=False`` keeps the direct reference path
        #: (the property tests hold the two bit-identical).
        self.memoize_rates = memoize_rates
        self._rate_cache: dict[tuple, list[float]] = {}
        self._res_sig: tuple | None = None
        self._phase_hooks: list[
            Callable[["Engine", int, Phase], float | None]
        ] = []
        #: Phase offset applied to injector schedules; lets a caller
        #: running many sub-plans on one engine (the resilient
        #: pipeline) keep a single global phase clock.
        self.phase_offset = 0

    def add_phase_hook(
        self, hook: Callable[["Engine", int, Phase], float | None]
    ) -> None:
        """Register a callback invoked before each phase runs.

        The hook receives ``(engine, phase_index, phase)`` and may
        return extra stall seconds to add to the phase.
        """
        self._phase_hooks.append(hook)

    # ---- fault application ----------------------------------------------

    def degrade_resource(self, name: str, fraction: float) -> bool:
        """Scale resource ``name`` to ``(1 - fraction)`` of nominal.

        Returns False (no-op) when the engine has no such resource, so
        fault plans may target devices absent from a given run.
        """
        if name not in self._nominal:
            return False
        if not 0.0 <= fraction <= 1.0:
            raise PlanError("degrade fraction must be in [0, 1]")
        nominal = self._nominal[name]
        capacity = nominal.capacity * max(1.0 - fraction, 1e-9)
        self.resources[name] = Resource(name, capacity)
        self._res_sig = None
        return True

    def restore_resource(self, name: str) -> None:
        """Return resource ``name`` to its nominal capacity."""
        if name in self._nominal:
            self.resources[name] = self._nominal[name]
            self._res_sig = None

    # ---- rate allocation -------------------------------------------------

    #: Bound on memoized solutions; reached only by adversarial plans
    #: (every phase structurally unique), at which point the cache is
    #: dropped wholesale rather than LRU-tracked.
    _RATE_CACHE_MAX = 4096

    def _allocate(self, live: list[Flow]) -> list[float]:
        """Max-min rates for ``live``, positionally, memoized on structure.

        The solution depends only on the current resource capacities
        and each live flow's ``(threads, per_thread_rate, resources)``
        signature — not on identity, names, or bytes remaining — so a
        cached solution is positionally bit-identical to a re-solve.
        """
        if not self.memoize_rates:
            rates = allocate_rates(live, self.resources)
            return [rates[id(f)] for f in live]
        res_sig = self._res_sig
        if res_sig is None:
            res_sig = self._res_sig = tuple(
                (name, self.resources[name].capacity)
                for name in sorted(self.resources)
            )
        key = (res_sig, tuple(f.signature for f in live))
        cached = self._rate_cache.get(key)
        if cached is None:
            rates = allocate_rates(live, self.resources)
            if len(self._rate_cache) >= self._RATE_CACHE_MAX:
                self._rate_cache.clear()
            self._rate_cache[key] = cached = [rates[id(f)] for f in live]
        return cached

    def _apply_phase_faults(
        self,
        index: int,
        phase: Phase,
        clock: float,
        faults: list[str],
        pending_restores: dict[int, list[str]],
        events: list[tuple[float, str]],
    ) -> float:
        """Apply faults due at phase ``index``; returns stall seconds."""
        stall = 0.0
        for name in pending_restores.pop(index, []):
            self.restore_resource(name)
            if self.injector is not None:
                self.injector.counters.restores += 1
            faults.append(f"phase {index}: {name} bandwidth restored")
        if self.injector is not None:
            for ev in self.injector.phase_events(index + self.phase_offset):
                if ev.kind is FaultKind.FLOW_STALL:
                    stall += ev.severity
                    self.injector.counters.stall_seconds += ev.severity
                    faults.append(f"phase {index}: {ev.describe()}")
                elif ev.kind is FaultKind.BANDWIDTH_DEGRADE:
                    if self.degrade_resource(ev.target or "", ev.severity):
                        self.injector.counters.degradations += 1
                        faults.append(f"phase {index}: {ev.describe()}")
                        if ev.duration_phases is not None:
                            pending_restores.setdefault(
                                index + ev.duration_phases, []
                            ).append(ev.target or "")
                else:
                    # Capacity / worker losses are owned by the heap,
                    # node, and pool layers; log them for visibility.
                    faults.append(f"phase {index}: {ev.describe()}")
        for hook in self._phase_hooks:
            extra = hook(self, index, phase)
            if extra:
                stall += float(extra)
        if stall > 0 and self.record_events:
            events.append((clock, f"{phase.name}: stalled {stall:g}s"))
        return stall

    def run(self, plan: Plan) -> RunResult:
        """Execute ``plan`` to completion and return timing/traffic."""
        plan.validate()
        clock = 0.0
        traffic: dict[str, float] = {name: 0.0 for name in self.resources}
        phase_times: list[float] = []
        events: list[tuple[float, str]] = []
        faults: list[str] = []
        pending_restores: dict[int, list[str]] = {}

        tel = _tm.current()
        # Successive runs share one monotonic sim timeline: this run's
        # phase/flow events are offset by the log's current watermark.
        t0 = tel.events.now if tel.enabled else 0.0
        if tel.enabled:
            tel.events.emit(_tn.EVENT_RUN_START, time=t0, plan=plan.name)
            m = tel.metrics
            c_phases = m.counter(_tn.ENGINE_PHASES_TOTAL)
            c_stall = m.counter(_tn.ENGINE_STALL_SECONDS_TOTAL)
            c_traffic = m.counter(_tn.ENGINE_TRAFFIC_BYTES_TOTAL)
            h_phase = m.histogram(_tn.ENGINE_PHASE_SECONDS)

        # The batched path can neither apply per-phase faults/hooks,
        # emit telemetry, nor record flow-completion events, so any of
        # those sends the whole run down the per-phase reference loop.
        use_batched = (
            self.batch_phases
            and self.injector is None
            and not self._phase_hooks
            and not tel.enabled
            and not self.record_events
        )
        if use_batched:
            segments = plan.compile()
        else:
            segments = [("ref", 0, len(plan.phases))]

        for segment in segments:
            if segment[0] in ("group", "dyn"):
                group = segment[1]
                if segment[0] == "group":
                    batched = self._run_group(group, clock, traffic)
                else:
                    batched = self._run_group_dynamic(group, clock, traffic)
                if batched is not None:
                    times, clock = batched
                    phase_times.extend(times)
                    self.batched_groups += 1
                    continue
                # Starved flow / no-completion round: re-run on the
                # reference loop, which raises the exact per-phase
                # SimulationError.
                segment = ("ref", group.start, group.start + group.count)
            _, seg_lo, seg_hi = segment
            for index in range(seg_lo, seg_hi):
                phase = plan.phases[index]
                stall = self._apply_phase_faults(
                    index, phase, clock, faults, pending_restores, events
                )
                if tel.enabled:
                    tel.events.emit(
                        _tn.EVENT_PHASE_START,
                        time=t0 + clock,
                        plan=plan.name,
                        phase=phase.name,
                        index=index,
                    )
                    before = dict(traffic)
                t = self._run_phase(
                    phase, clock + stall, traffic, events, tel, t0
                ) + stall
                phase_times.append(t)
                clock += t
                if tel.enabled:
                    c_phases.inc()
                    h_phase.observe(t)
                    if stall > 0:
                        c_stall.inc(stall)
                    for name, total in traffic.items():
                        moved = total - before.get(name, 0.0)
                        if moved > 0:
                            c_traffic.inc(moved, resource=name)
                    tel.events.emit(
                        _tn.EVENT_PHASE_END,
                        time=t0 + clock,
                        plan=plan.name,
                        phase=phase.name,
                        index=index,
                        seconds=t,
                        stall_seconds=stall,
                    )

        if tel.enabled:
            tel.metrics.counter(_tn.ENGINE_RUNS_TOTAL).inc()
            tel.events.emit(
                _tn.EVENT_RUN_END,
                time=t0 + clock,
                plan=plan.name,
                seconds=clock,
            )
        return RunResult(
            elapsed=clock,
            traffic=traffic,
            phase_times=phase_times,
            events=events,
            faults=faults,
        )

    def _run_phase(
        self,
        phase: Phase,
        start: float,
        traffic: dict[str, float],
        events: list[tuple[float, str]],
        tel: _tm.Telemetry | None = None,
        t0: float = 0.0,
    ) -> float:
        """Run one phase; returns its elapsed time."""
        if tel is None:
            tel = _tm.current()
        if tel.enabled:
            c_flows = tel.metrics.counter(_tn.ENGINE_FLOW_COMPLETIONS_TOTAL)

        def flow_done(at: float, f: Flow) -> None:
            if tel.enabled:
                c_flows.inc()
                tel.events.emit(
                    _tn.EVENT_FLOW_COMPLETE,
                    time=t0 + at,
                    phase=phase.name,
                    flow=f.name,
                    bytes=f.bytes_total,
                )
            if self.record_events:
                events.append((at, f"{phase.name}:{f.name} done"))

        # Work on copies of byte counters so plans can be re-run.
        live = [f for f in phase.flows if f.bytes_total > 0]
        remaining = [f.bytes_total for f in live]
        if phase.static_rates:
            if not live:
                return 0.0
            rates = self._allocate(live)
            dt = 0.0
            for f, rem, r in zip(live, remaining, rates):
                if r <= 0:
                    raise SimulationError(
                        f"phase {phase.name!r}: flow {f.name!r} starved "
                        "under static rates"
                    )
                dt = max(dt, rem / r)
                for name, mult in f.resources.items():
                    traffic[name] += rem * mult
                flow_done(start + rem / r, f)
            return dt
        elapsed = 0.0
        # Each iteration completes at least one flow (every flow whose
        # remaining bytes drain in exactly ``dt`` — same-rate
        # completions batch into the one step), so this loop runs at
        # most len(live) times.
        max_iter = len(live) + 1
        for _ in range(max_iter):
            if not live:
                break
            rates = self._allocate(live)
            # Time until the earliest completion.
            dt = math.inf
            for rem, r in zip(remaining, rates):
                if r > 0 and rem / r < dt:
                    dt = rem / r
            if math.isinf(dt):
                raise SimulationError(
                    f"phase {phase.name!r}: live flows but zero aggregate "
                    "rate (resource starvation)"
                )
            elapsed += dt
            next_live = []
            next_remaining = []
            for f, rem, r in zip(live, remaining, rates):
                moved = r * dt
                rem = max(0.0, rem - moved)
                for name, mult in f.resources.items():
                    traffic[name] += moved * mult
                if rem <= _EPS * max(1.0, f.bytes_total):
                    flow_done(start + elapsed, f)
                else:
                    next_live.append(f)
                    next_remaining.append(rem)
            if len(next_live) == len(live):
                raise SimulationError(
                    f"phase {phase.name!r}: no flow completed in an "
                    "engine iteration"
                )
            live = next_live
            remaining = next_remaining
        if live:
            raise SimulationError(
                f"phase {phase.name!r}: exceeded iteration bound"
            )
        return elapsed

    def _run_group(
        self,
        group: _CompiledGroup,
        clock: float,
        traffic: dict[str, float],
    ) -> tuple[list[float], float] | None:
        """Evaluate a compiled static-phase group with array ops.

        One water-filling solve covers the whole group (every phase has
        the same live-flow structure); per-phase times are the row-max
        of ``bytes_matrix / rates`` and per-resource traffic is
        accumulated with :func:`numpy.cumsum`, whose strict
        left-to-right association reproduces the reference loop's
        ``+=`` chain bit for bit. Returns ``None`` when any flow would
        starve — the caller re-runs those phases on the reference loop
        so the usual :class:`SimulationError` is raised.
        """
        rates = np.asarray(self._allocate(group.flows), dtype=np.float64)
        if np.any(rates <= 0.0):
            return None
        per_flow = group.bytes_matrix / rates
        times = per_flow.max(axis=1)
        for name, cols, mults in group.resource_cols:
            contrib = group.bytes_matrix[:, cols] * mults
            ordered = np.empty(contrib.size + 1, dtype=np.float64)
            ordered[0] = traffic[name]
            ordered[1:] = contrib.ravel()
            traffic[name] = float(np.cumsum(ordered)[-1])
        ticks = np.empty(times.size + 1, dtype=np.float64)
        ticks[0] = clock
        ticks[1:] = times
        return times.tolist(), float(np.cumsum(ticks)[-1])

    def _run_group_dynamic(
        self,
        group: _CompiledGroup,
        clock: float,
        traffic: dict[str, float],
    ) -> tuple[list[float], float] | None:
        """Evaluate a compiled dynamic-phase group with the segmented
        event-driven batch.

        Each phase in the group is an independent event loop over the
        same live-flow structure; :func:`repro.simknl.batch.batched_dynamic`
        advances all of them in lock-step rounds, re-solving the
        water-filling allocation once per distinct set of still-live
        flows instead of once per phase per round. Returns ``None``
        when any phase would starve or fail to complete a flow in a
        round — the caller re-runs the segment on the reference loop so
        the usual :class:`SimulationError` is raised.
        """
        from repro.simknl.batch import batched_dynamic

        out = batched_dynamic(group.flows, group.bytes_matrix, self._allocate)
        if out is None:
            return None
        times, chains = out
        for name, chain in chains:
            ordered = np.empty(chain.size + 1, dtype=np.float64)
            ordered[0] = traffic[name]
            ordered[1:] = chain.ravel()
            traffic[name] = float(np.cumsum(ordered)[-1])
        ticks = np.empty(times.size + 1, dtype=np.float64)
        ticks[0] = clock
        ticks[1:] = times
        return times.tolist(), float(np.cumsum(ticks)[-1])

    def run_batch(self, plans: list[Plan]) -> list[RunResult]:
        """Run N structurally identical plans as one tensor evaluation.

        Delegates to :func:`repro.simknl.batch.run_batch`; falls back to
        sequential :meth:`run` calls when the engine or the plans are
        ineligible (see that function's docs). Results are bit-identical
        to ``[self.run(p) for p in plans]`` either way.
        """
        from repro.simknl.batch import run_batch

        return run_batch(self, plans)


def run_flows(
    flows: list[Flow],
    resources: Iterable[Resource],
    name: str = "phase",
) -> RunResult:
    """Convenience: run a single phase of flows to completion."""
    engine = Engine(resources)
    return engine.run(Plan(name=name, phases=[Phase(name=name, flows=flows)]))
