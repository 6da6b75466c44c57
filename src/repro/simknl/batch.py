"""Cross-cell tensor batching: one NumPy evaluation for a whole sweep.

The paper's sweeps (Table 1, Figures 6-8) evaluate thousands of cells
that differ only in sizes and rates over a structurally identical plan.
``Plan.compile`` exploits that structure *within* one plan; this module
exploits it *across* cells: N plans with the same phase structure and
live-flow signatures (only ``bytes_total`` varying) are stacked into
one ``(cells x live-flow-slots)`` bytes tensor and evaluated with a
handful of vectorized ops.

A plan is *lowered* to a :class:`LoweredSweep` template plus one bytes
row. The template segments the phases into *runs*, the maximal
stretches of consecutive phases one vectorized op covers:

* a **block** is ``count`` phases with the same two or more live-flow
  signatures. A static block is one water-filling solve and a row-max
  over a ``(cells, count, k)`` array; a dynamic block is one
  :func:`batched_dynamic` call on ``cells * count`` rows;
* a **singles** run is consecutive phases with at most one live flow
  each, whatever their signatures. Their solved rates form a vector
  ``r``: each phase takes ``b / r`` and moves ``b`` (static) or
  ``r * (b / r)`` (dynamic, followed by the reference loop's
  completion check). Phases with no live flow take zero time.

Bit-identity with per-cell :meth:`Engine.run` is preserved by the same
arguments the within-plan groups use (the per-cell loop remains the
reference oracle):

* a memoized water-filling solve is positionally bit-identical to a
  re-solve for equal structural signatures;
* ``max``/``min`` folds over floats are exact, and ``np.cumsum``'s
  strict left-to-right association reproduces the reference ``+=``
  chains bit for bit when the chains are laid out phase-major, as they
  are here;
* zero-padding is bitwise neutral — ``x + 0.0 == x`` for the finite
  non-negative totals the engine accumulates — which is what lets
  rectangular arrays cover rows whose flows finish early.

Anything the tensor cannot express — fault injectors, phase hooks, an
active telemetry session, event recording, starved allocations, rounds
where some phase completes no flow — declines, and the plans are re-run
on the reference path, which raises the exact
:class:`~repro.errors.SimulationError` a serial caller would see.

:func:`evaluate_plan_batch` is the sweep-level entry point used by
``experiments.runner.sweep_map``: drivers declare structural
batchability by attaching a :class:`PlanBatchSpec` to their cell
function, whose ``build`` lowers one cell to plans (or to
:class:`LoweredPlan` directly, as
:meth:`repro.core.buffering.BufferedPipeline.lower` does) plus a
``finish`` post-processor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.errors import PlanError
from repro.simknl.engine import _EPS, Engine, Plan, RunResult
from repro.simknl.flows import Flow, Resource
from repro.telemetry import runtime as _tm

__all__ = [
    "PlanBatch",
    "PlanBatchSpec",
    "LoweredPlan",
    "LoweredSweep",
    "batched_dynamic",
    "evaluate_plan_batch",
    "lower_phases",
    "lower_plan",
    "lower_plans",
    "run_batch",
    "run_lowered",
]


def _resource_columns(
    flows: Sequence[Flow],
) -> list[tuple[str, list[int], np.ndarray]]:
    """Per-resource ``(name, flow columns, multipliers)`` triples, in
    the reference loop's first-touch order (columns ascending)."""
    seen: dict[str, list[int]] = {}
    for j, f in enumerate(flows):
        for name in f.resources:
            seen.setdefault(name, []).append(j)
    return [
        (
            name,
            cols,
            np.array([flows[j].resources[name] for j in cols], dtype=np.float64),
        )
        for name, cols in seen.items()
    ]


def batched_dynamic(
    flows: Sequence[Flow],
    bytes_matrix: np.ndarray,
    allocate: Callable[[list[Flow]], list[float]],
) -> tuple[np.ndarray, list[tuple[str, np.ndarray]]] | None:
    """Advance N independent dynamic event loops in lock-step rounds.

    Each row of ``bytes_matrix`` is one dynamic phase (or one cell's
    instance of a phase) over the live-flow template ``flows``. Round
    ``i`` performs every row's ``i``-th event-loop iteration at once:
    rows are grouped by their set of still-live flows, one (memoized)
    water-filling solve covers each group, and the per-row step time is
    the exact ``min`` fold ``rem / rate`` of the reference loop. Each
    round retires at least one flow per active row, so there are at
    most ``len(flows)`` rounds regardless of row count.

    Returns ``(times, chains)`` where ``times`` is the per-row elapsed
    seconds and ``chains`` holds, per resource, the ``(rows, rounds *
    touching-flows)`` traffic contributions in the reference loop's
    accumulation order (zero-filled where a flow was already done —
    bitwise neutral under ``+=``). Returns ``None`` — caller falls back
    to the reference loop — when any row would starve (zero aggregate
    rate) or complete no flow in a round, so the reference path raises
    the exact :class:`~repro.errors.SimulationError`.
    """
    n, k = bytes_matrix.shape
    if k == 0:
        return np.zeros(n, dtype=np.float64), []
    rem = bytes_matrix.astype(np.float64, copy=True)
    thresh = _EPS * np.maximum(1.0, rem)
    alive = np.ones((n, k), dtype=bool)
    elapsed = np.zeros(n, dtype=np.float64)
    res_cols = _resource_columns(flows)
    chains: dict[str, list[np.ndarray]] = {name: [] for name, _, _ in res_cols}

    for _ in range(k):
        active = np.nonzero(alive.any(axis=1))[0]
        if active.size == 0:
            break
        moved_round = np.zeros((n, k), dtype=np.float64)
        dt_round = np.zeros(n, dtype=np.float64)
        masks, inverse = np.unique(
            alive[active], axis=0, return_inverse=True
        )
        inverse = inverse.reshape(-1)
        for g, mask in enumerate(masks):
            rows = active[inverse == g] if len(masks) > 1 else active
            idx = np.nonzero(mask)[0]
            rates = np.asarray(
                allocate([flows[j] for j in idx]), dtype=np.float64
            )
            pos = rates > 0.0
            if not pos.any():
                return None  # zero aggregate rate: reference raises
            cells = np.ix_(rows, idx)
            sub_rem = rem[cells]
            dt = (sub_rem[:, pos] / rates[pos]).min(axis=1)
            if not np.isfinite(dt).all():
                return None  # no finite step: reference raises
            moved = rates * dt[:, None]
            new_rem = np.maximum(0.0, sub_rem - moved)
            finished = new_rem <= thresh[cells]
            if not finished.any(axis=1).all():
                return None  # a row completed nothing: reference raises
            rem[cells] = new_rem
            alive[cells] = ~finished
            moved_round[cells] = moved
            dt_round[rows] = dt
        elapsed += dt_round
        for name, cols, mults in res_cols:
            chains[name].append(moved_round[:, cols] * mults)
    if alive.any():
        return None  # exceeded iteration bound: reference raises

    out = [
        (name, np.concatenate(chains[name], axis=1))
        for name, _, _ in res_cols
        if chains[name]
    ]
    return elapsed, out


# ---- runs ---------------------------------------------------------------

#: ``chains[resource]`` collects ``(cells, m)`` traffic contributions in
#: the reference loop's accumulation order.
_Chains = dict[str, list[np.ndarray]]


@dataclass
class _Block:
    """``count`` consecutive phases sharing ``k >= 2`` live-flow
    signatures: phases ``[start, start + count)``, tensor columns
    ``[lo, lo + count * k)`` phase-major."""

    static: bool
    flows: list[Flow]
    sigs: tuple
    start: int
    count: int
    lo: int

    def key(self) -> tuple:
        return ("block", self.static, self.sigs, self.count)

    def evaluate(
        self, engine: Engine, tensor: np.ndarray, times: np.ndarray,
        chains: _Chains,
    ) -> bool:
        cells = tensor.shape[0]
        k = len(self.flows)
        sub = tensor[:, self.lo:self.lo + self.count * k].reshape(
            cells, self.count, k
        )
        span = slice(self.start, self.start + self.count)
        if self.static:
            rates = np.asarray(engine._allocate(self.flows), dtype=np.float64)
            if np.any(rates <= 0.0):
                return False  # starved static flow: reference raises
            times[:, span] = (sub / rates).max(axis=2)
            for name, cols, mults in _resource_columns(self.flows):
                chains[name].append(
                    (sub[:, :, cols] * mults).reshape(cells, -1)
                )
            return True
        out = batched_dynamic(
            self.flows, sub.reshape(cells * self.count, k), engine._allocate
        )
        if out is None:
            return False
        times[:, span] = out[0].reshape(cells, self.count)
        for name, chain in out[1]:
            chains[name].append(chain.reshape(cells, -1))
        return True


@dataclass
class _Segment:
    """``count`` consecutive phases of a singles run with the same
    ``(static, signature)``; ``flow`` is None when they have no live
    flow."""

    static: bool | None
    flow: Flow | None
    sig: tuple | None
    count: int


@dataclass
class _Singles:
    """Consecutive phases with at most one live flow each, from phase
    ``start``; the live ones own tensor columns ``[lo, lo + live)``."""

    start: int
    lo: int
    segments: list[_Segment] = field(default_factory=list)

    def key(self) -> tuple:
        return ("singles",) + tuple(
            (s.static, s.sig, s.count) for s in self.segments
        )

    def evaluate(
        self, engine: Engine, tensor: np.ndarray, times: np.ndarray,
        chains: _Chains,
    ) -> bool:
        live = [s for s in self.segments if s.flow is not None]
        if not live:
            return True  # only empty phases: zero time, no traffic
        counts = [s.count for s in live]
        width = sum(counts)
        solved: dict[tuple, float] = {}
        for s in live:
            if s.sig not in solved:
                solved[s.sig] = engine._allocate([s.flow])[0]
        rates = np.array([solved[s.sig] for s in live], dtype=np.float64)
        if np.any(rates <= 0.0):
            return False  # starved flow: reference raises
        b = tensor[:, self.lo:self.lo + width]
        r = np.repeat(rates, counts)
        t = b / r
        static = [s.static for s in live]
        if all(static):
            moved = b
        else:
            moved = r * t
            if any(static):
                moved = np.where(np.repeat(static, counts), b, moved)
            # Static columns move ``b`` and pass trivially; a dynamic
            # one must finish in one finite step, as in the reference.
            left = np.maximum(0.0, b - moved)
            if not (
                np.isfinite(moved).all()
                and (left <= _EPS * np.maximum(1.0, b)).all()
            ):
                return False  # no finite completing step: reference raises
        if len(live) == len(self.segments):
            times[:, self.start:self.start + width] = t
        else:
            has_flow = [s.flow is not None for s in self.segments]
            phase_of = np.nonzero(
                np.repeat(has_flow, [s.count for s in self.segments])
            )[0]
            times[:, self.start + phase_of] = t
        names: dict[str, None] = {}
        for s in live:
            names.update(dict.fromkeys(s.flow.resources))
        for name in names:
            mults = np.repeat(
                [s.flow.resources.get(name, 0.0) for s in live], counts
            )
            touch = [name in s.flow.resources for s in live]
            if all(touch):
                chains[name].append(moved * mults)
            else:
                cols = np.nonzero(np.repeat(touch, counts))[0]
                chains[name].append(moved[:, cols] * mults[cols])
        return True


# ---- lowering -----------------------------------------------------------


@dataclass
class LoweredSweep:
    """A sweep's shared shape: phase runs plus tensor layout.

    Pair with a ``(cells, width)`` bytes tensor — one row per cell, one
    column per live flow slot in plan order — and feed both to
    :func:`run_lowered`. ``key`` identifies the shape: two plans whose
    templates have equal keys (under equal resources) differ only in
    their bytes rows, so their rows may share one tensor.
    """

    runs: list
    width: int
    phases: int
    key: tuple = field(init=False)

    def __post_init__(self) -> None:
        self.key = tuple(run.key() for run in self.runs)


@dataclass
class LoweredPlan:
    """One plan lowered: its template, its bytes row, and ``reference``,
    which builds the equivalent :class:`Plan` for the reference path
    (fallbacks and ineligible engines)."""

    sweep: LoweredSweep
    row: np.ndarray
    reference: Callable[[], Plan]


def lower_phases(
    phases: Iterable[tuple[bool, Sequence[Flow], Sequence[float], int]],
    reference: Callable[[], Plan],
) -> LoweredPlan:
    """Lower a compressed phase sequence.

    Each entry ``(static, live_flows, nbytes, count)`` stands for
    ``count`` consecutive phases with the given ``static_rates`` flag
    whose live flows (``bytes_total > 0``, in plan order) are
    ``live_flows`` with byte demands ``nbytes``. Consecutive entries
    merge into maximal runs, so the template and its key do not depend
    on how the sequence was compressed: a plan lowered phase by phase
    and a closed-form lowering of the same plan agree.
    """
    runs: list = []
    row: list[float] = []
    start = 0
    for static, flows, nbytes, count in phases:
        if count <= 0:
            continue
        last = runs[-1] if runs else None
        if len(flows) >= 2:
            sigs = tuple(f.signature for f in flows)
            if (
                isinstance(last, _Block)
                and last.static == static
                and last.sigs == sigs
            ):
                last.count += count
            else:
                runs.append(
                    _Block(static, list(flows), sigs, start, count, len(row))
                )
        else:
            if not isinstance(last, _Singles):
                last = _Singles(start, len(row))
                runs.append(last)
            if flows:
                flow, seg_static, sig = flows[0], static, flows[0].signature
            else:
                flow = seg_static = sig = None
            segs = last.segments
            if segs and segs[-1].static == seg_static and segs[-1].sig == sig:
                segs[-1].count += count
            else:
                segs.append(_Segment(seg_static, flow, sig, count))
        row.extend(nbytes if count == 1 else list(nbytes) * count)
        start += count
    return LoweredPlan(
        LoweredSweep(runs, len(row), start),
        np.array(row, dtype=np.float64),
        reference,
    )


def lower_plan(plan: Plan) -> LoweredPlan:
    """Validate and lower one :class:`Plan`, phase by phase."""
    plan.validate()

    def phases():
        for ph in plan.phases:
            live = [f for f in ph.flows if f.bytes_total > 0]
            yield ph.static_rates, live, [f.bytes_total for f in live], 1

    return lower_phases(phases(), lambda: plan)


def lower_plans(plans: Sequence[Plan]) -> tuple[LoweredSweep, np.ndarray]:
    """Stack N structurally identical plans into one bytes tensor.

    Each plan contributes one tensor row of its live-flow byte demands
    in plan order. The tensor is the sweep's entire variable state —
    ``cells x width`` float64, 8 bytes per live flow slot per cell.
    Raises :class:`~repro.errors.PlanError` when the plans' templates
    differ.
    """
    lowered = [lower_plan(p) for p in plans]
    _check_shared(lowered, plans)
    return lowered[0].sweep, np.stack([low.row for low in lowered])


def _check_shared(lowered: Sequence[LoweredPlan], plans: Sequence[Plan]):
    key = lowered[0].sweep.key
    for low, p in zip(lowered[1:], plans[1:]):
        if low.sweep.key != key:
            raise PlanError(
                f"run_batch: plan {p.name!r} does not share the batch's "
                "phase structure"
            )


# ---- evaluation ---------------------------------------------------------


def _engine_eligible(engine: Engine) -> bool:
    """Mirror of ``Engine.run``'s batched-path gate: anything needing
    per-phase callbacks or event recording must take the reference
    loop per cell."""
    return (
        engine.batch_phases
        and engine.injector is None
        and not engine._phase_hooks
        and not _tm.current().enabled
        and not engine.record_events
    )


def run_lowered(
    engine: Engine, lowered: LoweredSweep, tensor: np.ndarray
) -> list[RunResult] | None:
    """Evaluate a lowered sweep: one :class:`RunResult` per tensor row.

    This is the tensor evaluation proper — per run one vectorized
    evaluation (see the module docstring), then elapsed clocks and
    per-resource traffic as carry-in cumsums over the phase-major
    chains. Returns ``None`` when any run needs the reference path
    (starved rates, a no-completion round, or a non-positive tensor
    entry, which would change liveness); callers with the original
    plans fall back to per-cell ``run``.

    Raises :class:`~repro.errors.PlanError` if the engine itself is
    ineligible (injector, phase hooks, active telemetry, event
    recording) — with only the tensor there is nothing to fall back to,
    so the caller must check first (:func:`run_batch` does).
    """
    if not _engine_eligible(engine):
        raise PlanError(
            "run_lowered requires a batch-eligible engine (no injector, "
            "phase hooks, telemetry, or event recording)"
        )
    if tensor.ndim != 2 or tensor.shape[1] != lowered.width:
        raise PlanError(
            f"bytes tensor has shape {tensor.shape}, expected "
            f"(cells, {lowered.width})"
        )
    if not (tensor > 0.0).all():
        return None  # a zero-byte slot changes liveness: reference path
    cells = tensor.shape[0]
    ticks = np.zeros((cells, lowered.phases + 1), dtype=np.float64)
    times = ticks[:, 1:]
    chains: _Chains = {name: [] for name in engine.resources}
    for run in lowered.runs:
        if not run.evaluate(engine, tensor, times, chains):
            return None

    elapsed = np.cumsum(ticks, axis=1)[:, -1].tolist()
    zero = np.zeros((cells, 1), dtype=np.float64)
    totals = {
        name: np.cumsum(np.concatenate([zero, *parts], axis=1), axis=1)[
            :, -1
        ].tolist()
        for name, parts in chains.items()
        if parts
    }
    phase_times = times.tolist()
    return [
        RunResult(
            elapsed=elapsed[c],
            traffic={
                name: totals[name][c] if name in totals else 0.0
                for name in engine.resources
            },
            phase_times=phase_times[c],
            events=[],
            faults=[],
        )
        for c in range(cells)
    ]


def _run_lowered_group(
    engine: Engine, lowered: Sequence[LoweredPlan]
) -> list[RunResult]:
    """Evaluate plans sharing one template on ``engine``, bit-identical
    to ``Engine.run`` on each; declines re-run on the reference path."""
    if _engine_eligible(engine):
        rows = [low.row for low in lowered]
        tensor = np.stack(rows) if len(rows) > 1 else rows[0][None, :]
        results = run_lowered(engine, lowered[0].sweep, tensor)
        if results is not None:
            engine.batched_plans += len(lowered)
            return results
    return [engine.run(low.reference()) for low in lowered]


def run_batch(engine: Engine, plans: Sequence[Plan]) -> list[RunResult]:
    """Run N structurally identical plans as one tensor evaluation.

    Bit-identical to ``[engine.run(p) for p in plans]``. Falls back to
    exactly that sequential loop when the engine is ineligible (fault
    injector, phase hooks, active telemetry session, event recording,
    ``batch_phases=False``), when there is only one plan, or when the
    tensor evaluation declines (starved allocation, no-completion
    round) — in which case the reference path also raises the precise
    per-phase :class:`~repro.errors.SimulationError` the serial caller
    would have seen.

    Raises :class:`~repro.errors.PlanError` if the plans do not share
    one phase structure.
    """
    plans = list(plans)
    if not plans:
        return []
    for p in plans:
        p.validate()
    if len(plans) == 1 or not _engine_eligible(engine):
        return [engine.run(p) for p in plans]
    lowered = [lower_plan(p) for p in plans]
    _check_shared(lowered, plans)
    return _run_lowered_group(engine, lowered)


# ---- sweep integration --------------------------------------------------


@dataclass
class PlanBatch:
    """One sweep cell lowered to engine work.

    Attributes
    ----------
    resources:
        The cell's node resources, in the node's order (one shared
        engine is created per distinct resource tuple, so structurally
        identical cells share memoized solves).
    plans:
        The plans whose runs the cell needs, in a fixed order: each a
        :class:`Plan` or an already :class:`LoweredPlan`.
    finish:
        Maps the plans' :class:`RunResult` list (same order) to the
        cell function's return value.
    """

    resources: Sequence[Resource]
    plans: Sequence[Plan | LoweredPlan]
    finish: Callable[[list[RunResult]], Any]


@dataclass(frozen=True)
class PlanBatchSpec:
    """Declares a cell function structurally batchable.

    Attach as a ``plan_batch`` attribute on the cell function.
    ``build(*cell)`` must replicate the cell function's configuration
    work — including raising the same validation errors — and return a
    :class:`PlanBatch`, or ``None`` to send that cell down the normal
    pool/serial path (the escape hatch for cells whose work a plan run
    cannot express).
    """

    build: Callable[..., PlanBatch | None]


def evaluate_plan_batch(
    spec: PlanBatchSpec, cells: Sequence[tuple]
) -> tuple[list[Any], list[int]]:
    """Evaluate sweep cells via cross-cell tensor batching.

    Builds every cell's :class:`PlanBatch`, lowers its plans, groups
    them by ``(resource tuple, template key)``, evaluates each group —
    singletons included — as one tensor on a shared per-resource-tuple
    engine, and feeds each cell's results to its ``finish``. Returns
    ``(results, leftover_indices)`` where ``results`` is aligned with
    ``cells`` (entries for leftover cells are ``None``) and
    ``leftover_indices`` names the cells whose ``build`` declined — the
    caller dispatches those through the pool/serial path.
    """
    results: list[Any] = [None] * len(cells)
    leftovers: list[int] = []
    built: list[tuple[int, PlanBatch]] = []
    for i, cell in enumerate(cells):
        item = spec.build(*cell)
        if item is None:
            leftovers.append(i)
        else:
            built.append((i, item))

    engines: dict[tuple, Engine] = {}
    groups: dict[tuple, list[tuple[int, int, LoweredPlan]]] = {}
    cell_runs: list[list[RunResult | None]] = []
    for bi, (_, item) in enumerate(built):
        engine_key = tuple((r.name, r.capacity) for r in item.resources)
        if engine_key not in engines:
            engines[engine_key] = Engine(item.resources, record_events=False)
        cell_runs.append([None] * len(item.plans))
        for slot, plan in enumerate(item.plans):
            low = plan if isinstance(plan, LoweredPlan) else lower_plan(plan)
            key = (engine_key, low.sweep.key)
            groups.setdefault(key, []).append((bi, slot, low))

    for (engine_key, _), entries in groups.items():
        outs = _run_lowered_group(
            engines[engine_key], [low for _, _, low in entries]
        )
        for (bi, slot, _), out in zip(entries, outs):
            cell_runs[bi][slot] = out

    for bi, (i, item) in enumerate(built):
        results[i] = item.finish(cell_runs[bi])
    return results, leftovers
