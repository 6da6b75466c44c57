"""The triple-buffered chunk pipeline of Section 3 (Fig. 2-5).

In flat and hybrid usage modes, three MCDRAM-resident buffers rotate
roles across steps: while chunk ``i`` is copied in, chunk ``i-1`` is
computed on and chunk ``i-2`` is copied out. Each step is a barrier
(``T_step = max(T_copyin, T_comp, T_copyout)``), which is exactly how
the engine executes a phase of concurrent flows. In the implicit and
cache usage modes there are no copy flows — the hardware cache moves
the data — and in DDR mode the chunk simply streams in place.

The pipeline *actually allocates* its buffers through the memkind
heap, so the capacity constraints the paper discusses (three buffers
must fit in addressable MCDRAM; hybrid mode shrinks the maximum chunk)
surface as allocation failures rather than silent fictions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CapacityError, AllocationError
from repro.core.chunking import Chunker
from repro.core.kernel import Kernel
from repro.core.modes import UsageMode, compute_multipliers, validate_node_mode
from repro.memkind.allocator import Allocation, Heap
from repro.memkind.kinds import MEMKIND_HBW
from repro.model.params import ModelParams
from repro.simknl.batch import LoweredPlan, lower_phases
from repro.simknl.engine import Phase, Plan, RunResult
from repro.simknl.flows import Flow
from repro.simknl.node import KNLNode
from repro.threads.pool import PoolSet


@dataclass
class PipelineResult:
    """Outcome of running a chunked pipeline."""

    run: RunResult
    plan: Plan
    mode: UsageMode
    num_chunks: int
    buffers_bytes: float

    @property
    def elapsed(self) -> float:
        """Simulated seconds."""
        return self.run.elapsed

    def traffic_gb(self, resource: str) -> float:
        """Physical traffic on ``resource`` in GB."""
        return self.run.traffic_gb(resource)


class BufferedPipeline:
    """Build and execute the chunked pipeline for one kernel.

    Parameters
    ----------
    node:
        Booted node (BIOS mode must match the usage mode).
    mode:
        Usage mode.
    pools:
        Thread partition. Copy pools may be empty for modes without
        explicit copies.
    chunker:
        Chunk geometry of the data set.
    kernel:
        The compute stage.
    params:
        Model parameters supplying ``s_copy``/``s_comp`` per-thread
        rates.
    buffered:
        When True (default) copy/compute/copy-out overlap across steps
        with three buffers; when False each chunk is processed
        sequentially (copy-in, compute, copy-out) with one buffer —
        MLM-sort's unbuffered style.
    per_thread_compute_rate:
        Override for the compute pool's per-thread rate (defaults to
        ``params.s_comp``).
    """

    def __init__(
        self,
        node: KNLNode,
        mode: UsageMode,
        pools: PoolSet,
        chunker: Chunker,
        kernel: Kernel,
        params: ModelParams | None = None,
        buffered: bool = True,
        per_thread_compute_rate: float | None = None,
    ) -> None:
        validate_node_mode(node, mode)
        self.node = node
        self.mode = mode
        self.pools = pools
        self.chunker = chunker
        self.kernel = kernel
        self.params = params or ModelParams()
        self.buffered = buffered
        self.s_comp = (
            per_thread_compute_rate
            if per_thread_compute_rate is not None
            else self.params.s_comp
        )
        self._buffers: list[Allocation] = []

    # ---- buffer management ----------------------------------------------

    def required_buffers(self) -> int:
        """MCDRAM buffers needed: 3 when buffered, 1 otherwise, 0 for
        modes without explicit placement."""
        if self.mode in (UsageMode.FLAT, UsageMode.HYBRID):
            return 3 if self.buffered else 1
        return 0

    def allocate_buffers(self, heap: Heap) -> float:
        """Reserve the MCDRAM buffers via the memkind heap.

        Returns the total bytes reserved. Raises
        :class:`~repro.errors.CapacityError` when the buffers do not
        fit in addressable MCDRAM — the paper's chunk-size limit.
        """
        count = self.required_buffers()
        if count == 0:
            return 0.0
        try:
            for _ in range(count):
                self._buffers.append(
                    heap.allocate(self.chunker.chunk_bytes, MEMKIND_HBW)
                )
        except AllocationError as exc:
            self.release_buffers(heap)
            raise CapacityError(
                f"{count} buffers of {self.chunker.chunk_bytes} bytes do "
                f"not fit in addressable MCDRAM "
                f"({self.node.addressable_mcdram:.0f} bytes): {exc}"
            ) from exc
        return float(count * self.chunker.chunk_bytes)

    def release_buffers(self, heap: Heap) -> None:
        """Free any buffers still held."""
        while self._buffers:
            heap.free(self._buffers.pop())

    # ---- flow construction ------------------------------------------------

    def _copy_in_flow(self, nbytes: float, label: str) -> Flow:
        return self.pools.copy_in.flow(
            per_thread_rate=self.params.s_copy,
            resources={"ddr": 1.0, "mcdram": 1.0},
            nbytes=nbytes,
            name=label,
        )

    def _copy_out_flow(self, nbytes: float, label: str) -> Flow:
        return self.pools.copy_out.flow(
            per_thread_rate=self.params.s_copy,
            resources={"ddr": 1.0, "mcdram": 1.0},
            nbytes=nbytes,
            name=label,
        )

    def _compute_flow(self, chunk_bytes: float, label: str, cold: bool) -> Flow:
        resources = compute_multipliers(
            self.node,
            self.mode,
            working_set=chunk_bytes,
            passes=self.kernel.passes(chunk_bytes),
            write_fraction=self.kernel.write_fraction,
            cold=cold,
        )
        return self.pools.compute.flow(
            per_thread_rate=self.s_comp,
            resources=resources,
            nbytes=self.kernel.logical_bytes(chunk_bytes),
            name=label,
        )

    # ---- plan construction -------------------------------------------------

    def build_plan(self) -> Plan:
        """Emit the step-by-step flow plan.

        :meth:`_lower` emits the same three layouts in closed form;
        change the two schedules together.
        """
        chunks = self.chunker.chunks()
        name = f"{self.kernel.name}/{self.mode.value}"
        plan = Plan(name=name)
        explicit = self.mode in (UsageMode.FLAT, UsageMode.HYBRID)
        if explicit and self.buffered:
            # Fig. 2: step s copies chunk s in, computes chunk s-1,
            # copies chunk s-2 out.
            n = len(chunks)
            for s in range(n + 2):
                flows = []
                if s < n:
                    flows.append(
                        self._copy_in_flow(chunks[s].nbytes, f"copy-in[{s}]")
                    )
                if 0 <= s - 1 < n:
                    c = chunks[s - 1]
                    flows.append(
                        self._compute_flow(c.nbytes, f"compute[{s - 1}]", True)
                    )
                if 0 <= s - 2 < n:
                    flows.append(
                        self._copy_out_flow(
                            chunks[s - 2].nbytes, f"copy-out[{s - 2}]"
                        )
                    )
                # Pools hold their threads for the whole step and spin
                # at the barrier: no mid-step bandwidth resharing.
                plan.add(Phase(name=f"step{s}", flows=flows, static_rates=True))
            return plan
        if explicit:
            # Unbuffered: sequential copy-in, compute, copy-out.
            for c in chunks:
                plan.add(
                    Phase(
                        name=f"chunk{c.index}/in",
                        flows=[self._copy_in_flow(c.nbytes, "copy-in")],
                    )
                )
                plan.add(
                    Phase(
                        name=f"chunk{c.index}/compute",
                        flows=[self._compute_flow(c.nbytes, "compute", True)],
                    )
                )
                plan.add(
                    Phase(
                        name=f"chunk{c.index}/out",
                        flows=[self._copy_out_flow(c.nbytes, "copy-out")],
                    )
                )
            return plan
        # Implicit / cache / DDR: compute-only phases; the cache (if
        # any) pulls data in on first touch, cold per chunk.
        for c in chunks:
            plan.add(
                Phase(
                    name=f"chunk{c.index}",
                    flows=[self._compute_flow(c.nbytes, "compute", True)],
                )
            )
        return plan

    def _with_buffers(self, fn, heap: Heap | None = None):
        """Call ``fn()`` with the buffers allocated on ``heap`` (or a
        fresh heap on the node) — surfacing the
        :class:`~repro.errors.CapacityError` an over-committed
        configuration raises — and release them again."""
        own_heap = heap or Heap(self.node)
        self.allocate_buffers(own_heap)
        try:
            return fn()
        finally:
            self.release_buffers(own_heap)

    def prepare(self, heap: Heap | None = None) -> Plan:
        """Build the plan without executing it, with :meth:`run`'s exact
        buffer accounting: buffers are allocated — surfacing the same
        :class:`~repro.errors.CapacityError` an over-committed
        configuration raises — and released again. :meth:`lower` is the
        closed-form equivalent the sweep drivers use.
        """
        return self._with_buffers(self.build_plan, heap)

    def lower(self) -> LoweredPlan:
        """Lower the plan in closed form, with :meth:`prepare`'s buffer
        accounting (same :class:`~repro.errors.CapacityError`).

        Equal to ``lower_plan(self.prepare())`` — same template key,
        bit-equal bytes row — but built from the chunk geometry alone:
        one template flow per (role, chunk size) and no phase or flow
        per step, so its cost does not grow with the chunk count (the
        unbuffered layout still walks its chunks once).
        """
        return self._with_buffers(self._lower)

    def _lower(self) -> LoweredPlan:
        n = self.chunker.num_chunks
        full = self.chunker.chunk_bytes
        sizes = (full, self.chunker.total_bytes - (n - 1) * full)
        flows: dict[tuple[str, bool], Flow] = {}

        def live(role: str, chunk: int) -> list[Flow]:
            """The role's template flow for chunk ``chunk``, if live."""
            last = chunk == n - 1
            f = flows.get((role, last))
            if f is None:
                size = sizes[last]
                if role == "in":
                    f = self._copy_in_flow(size, "copy-in")
                elif role == "out":
                    f = self._copy_out_flow(size, "copy-out")
                else:
                    f = self._compute_flow(size, "compute", True)
                if f.bytes_total > 0 and f.rate_cap <= 0:
                    self.build_plan().validate()  # raises the plan's error
                flows[role, last] = f
            return [f] if f.bytes_total > 0 else []

        def phases():
            explicit = self.mode in (UsageMode.FLAT, UsageMode.HYBRID)
            if explicit and self.buffered:
                # Step s copies chunk s in, computes chunk s-1 and
                # copies chunk s-2 out; the step's live flows change
                # only at these cuts.
                cuts = sorted(
                    {c for c in (0, 1, 2, n - 1, n, n + 1) if c >= 0}
                    | {n + 2}
                )
                for a, b in zip(cuts, cuts[1:]):
                    step = []
                    if a < n:
                        step += live("in", a)
                    if 1 <= a <= n:
                        step += live("compute", a - 1)
                    if 2 <= a:
                        step += live("out", a - 2)
                    yield True, step, [f.bytes_total for f in step], b - a
            elif explicit:
                for c in range(n):
                    for role in ("in", "compute", "out"):
                        step = live(role, c)
                        yield False, step, [f.bytes_total for f in step], 1
            else:
                for c, count in ((0, n - 1), (n - 1, 1)):
                    step = live("compute", c)
                    yield False, step, [f.bytes_total for f in step], count

        return lower_phases(phases(), self.build_plan)

    def run(self, heap: Heap | None = None) -> PipelineResult:
        """Allocate buffers, execute the plan, release buffers."""
        own_heap = heap or Heap(self.node)
        reserved = self.allocate_buffers(own_heap)
        try:
            plan = self.build_plan()
            result = self.node.run(plan)
        finally:
            self.release_buffers(own_heap)
        return PipelineResult(
            run=result,
            plan=plan,
            mode=self.mode,
            num_chunks=self.chunker.num_chunks,
            buffers_bytes=reserved,
        )

    def run_functional(self, array) -> "list":
        """Apply the kernel to a real array, chunk by chunk.

        The functional twin of :meth:`run`: the same chunk geometry
        drives real :meth:`Kernel.apply` calls on array views, so
        tests and examples can validate a kernel's semantics with the
        exact boundaries the timed plan charges for. Returns the list
        of per-chunk outputs (kernels may change chunk lengths, e.g. a
        filter, so outputs are not stitched automatically).
        """
        return [self.kernel.apply(c) for c in self.chunker.split_array(array)]
