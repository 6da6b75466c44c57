"""Sweep-as-a-service: an asyncio job queue over the pool and store.

The ROADMAP's delivery vehicle for "explore any scenario": a
long-running front end that lets many clients drive mode x chunk x
copy-thread sweeps (Figures 6-8, the ``pareto`` design-space endpoint)
without forking a CLI process per request. Three layers:

* :class:`SweepService` — the network-free core: a bounded job queue
  with per-tenant admission control (max in-flight jobs, max queued
  cell weight), explicit backpressure (a full queue *rejects* with a
  structured retry-after, never stalls), job lifecycle
  ``submitted -> queued -> running -> done/failed/cancelled`` with
  cancellation and deterministic job IDs, and a signal-safe drain.
  Jobs execute on a small thread pool; each thread calls the ordinary
  experiment driver, so everything already proven bit-identical in
  :func:`~repro.experiments.runner.sweep_map` — tensor batching, the
  worker pool, the two-tier memo — is reused, not reimplemented.
* :func:`start_server` / :func:`run_server` — a line-delimited-JSON
  over TCP protocol on stdlib :func:`asyncio.start_server` (no new
  dependencies). Verbs: ``submit``, ``status``, ``wait``, ``cancel``,
  ``metrics`` (Prometheus exposition of the ``service.*`` family).
  See ``docs/SERVICE.md`` for the wire format.
* ``repro-knl serve`` / ``repro-knl submit`` — the CLI front ends
  (:mod:`repro.cli`, :mod:`repro.experiments.client`).

Warm-store guarantee: when the configured result store already holds
every cell of a job, the job is served through
:func:`~repro.experiments.runner.replay_session` — zero engine
invocations, the same guarantee as ``repro-knl replay`` — and its
response is marked ``served: "store"``. A cold or partial store falls
back to a normal computing run (``served: "engine"``), bit-identical
either way.

Telemetry: the service emits the ``service.*`` catalog family on its
own private :class:`~repro.telemetry.Telemetry` registry, touched only
from the event-loop thread. Job threads deliberately run *outside* any
telemetry session (``run_in_executor`` does not propagate context
variables), so sweeps keep their fast path: a telemetry session would
force :func:`sweep_map` into serial in-process execution.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from repro.errors import (
    AdmissionError,
    ConfigError,
    ServiceError,
    StoreMissError,
)
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.pool import current_pool, shutdown_pool
from repro.experiments.runner import config_hash, replay_session
from repro.experiments.store import get_store
from repro.telemetry import Telemetry, metrics_to_prometheus
from repro.telemetry import names as _tn

#: Protocol schema version, echoed in every response.
PROTOCOL_VERSION = 1

#: Byte limit for one request/response line (asyncio's default 64 KiB
#: stream limit is too small for multi-row result payloads).
STREAM_LIMIT = 1 << 20

#: Job lifecycle states (terminal: done / failed / cancelled).
JOB_STATES = (
    "queued", "running", "done", "failed", "cancelled",
)

#: Approximate sweep-cell dispatch weight per experiment, used by the
#: per-tenant queued-cell budget. These are admission-control
#: estimates, not exact counts — close enough to stop one tenant from
#: parking a pathological backlog behind everyone else's jobs.
CELL_WEIGHTS = {
    "table1": 30,
    "figure6": 30,
    "figure7": 24,
    "figure8": 32,
    "table2": 4,
    "table3": 12,
    "bender": 12,
    "pareto": 64,
}
DEFAULT_CELL_WEIGHT = 16

#: Infra kwargs the service owns; client params may not override them.
_RESERVED_PARAMS = frozenset({"jobs", "store"})


def _accepted_params(experiment: str) -> frozenset[str] | None:
    """Wire ``params`` keys a driver takes: its keyword parameters less
    the service-owned ones, plus ``seed``, which deterministic drivers
    ignore (as the CLI does). None when the driver takes ``**kwargs``."""
    params = inspect.signature(ALL_EXPERIMENTS[experiment]).parameters
    if any(p.kind is p.VAR_KEYWORD for p in params.values()):
        return None
    return frozenset(params).union({"seed"}) - _RESERVED_PARAMS


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for a :class:`SweepService`.

    Attributes
    ----------
    max_queue:
        Global bound on jobs admitted but not yet running; the
        ``max_queue + 1``-th submission is rejected, never queued.
    max_tenant_jobs:
        Per-tenant bound on in-flight jobs (queued + running).
    max_tenant_cells:
        Per-tenant bound on queued sweep-cell weight
        (:data:`CELL_WEIGHTS`).
    job_workers:
        Threads executing jobs concurrently. Sweep dispatch on the
        worker pool serializes on the pool's own lock, so this bounds
        driver-level concurrency, not worker processes.
    jobs:
        Worker processes requested from the worker pool for drivers
        that support ``jobs=`` (at least 1).
    store:
        Result-store root backing every job's sweep memo (and the
        warm-store replay path). ``None`` disables tier 2.
    drain_timeout_s:
        How long :meth:`SweepService.drain` waits for running jobs
        before abandoning their threads.
    retry_after_s:
        Backoff hint attached to admission rejections.
    idle_reap_s:
        Stop the worker pool's processes after this much pool
        idleness (``None`` disables the reaper).
    """

    max_queue: int = 16
    max_tenant_jobs: int = 4
    max_tenant_cells: int = 256
    job_workers: int = 2
    jobs: int = 2
    store: str | None = None
    drain_timeout_s: float = 30.0
    retry_after_s: float = 1.0
    idle_reap_s: float | None = 300.0


@dataclass
class Job:
    """One submitted sweep job and its lifecycle record."""

    id: str
    tenant: str
    experiment: str
    params: dict[str, Any]
    cells: int
    state: str = "queued"
    served: str | None = None  # "store" | "engine" once terminal
    error: str | None = None
    result: Any = None  # ExperimentResult once done
    submitted_at: float = 0.0
    finished_at: float | None = None
    done: asyncio.Event = field(default_factory=asyncio.Event)

    def describe(self) -> dict[str, Any]:
        """The job's wire-format status payload (result excluded)."""
        out: dict[str, Any] = {
            "job_id": self.id,
            "tenant": self.tenant,
            "experiment": self.experiment,
            "state": self.state,
        }
        if self.served is not None:
            out["served"] = self.served
        if self.error is not None:
            out["error"] = self.error
        return out


def job_id_for(tenant: str, experiment: str, params: dict[str, Any]) -> str:
    """Deterministic job ID: same submission, same ID, any process.

    Reuses the sweep memo's :func:`config_hash` canonicalization, so
    an in-flight duplicate submission can be deduplicated (idempotent
    submit) and a re-submission after completion re-runs against the
    now-warm store.
    """
    return config_hash(
        ("service-job", tenant, experiment, sorted(params.items()))
    )


def cell_weight(experiment: str) -> int:
    """Approximate queued-cell admission weight of one job."""
    return CELL_WEIGHTS.get(experiment, DEFAULT_CELL_WEIGHT)


def result_to_wire(result: Any) -> dict[str, Any]:
    """An :class:`ExperimentResult` as a JSON-ready dict.

    JSON round-trips Python floats exactly (repr-shortest form), so a
    client reconstructing the result renders byte-identical tables and
    CSV to a direct in-process run.
    """
    return {
        "experiment": result.experiment,
        "title": result.title,
        "columns": list(result.columns),
        "rows": [dict(r) for r in result.rows],
        "notes": list(result.notes),
    }


def result_from_wire(payload: dict[str, Any]) -> Any:
    """Rebuild an :class:`ExperimentResult` from its wire dict."""
    from repro.experiments.runner import ExperimentResult

    try:
        return ExperimentResult(
            experiment=payload["experiment"],
            title=payload["title"],
            columns=list(payload["columns"]),
            rows=[dict(r) for r in payload["rows"]],
            notes=list(payload.get("notes", [])),
        )
    except (KeyError, TypeError) as exc:
        raise ServiceError(f"malformed result payload: {exc}") from exc


class SweepService:
    """The network-free job-queue core behind ``repro-knl serve``.

    All public methods except :meth:`run_job_blocking` must be called
    from the event-loop thread; job execution happens on an internal
    thread pool and reports back to the loop. Create, then ``await
    start()``; stop with ``await drain()``.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        if self.config.max_queue < 1:
            raise ServiceError("max_queue must be >= 1")
        if self.config.job_workers < 1:
            raise ServiceError("job_workers must be >= 1")
        if self.config.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.config.jobs}")
        self.telemetry = Telemetry()
        self.jobs: dict[str, Job] = {}
        self._queue: asyncio.Queue[Job | None] = asyncio.Queue()
        self._queued = 0
        self._tenant_inflight: dict[str, int] = {}
        self._tenant_cells: dict[str, int] = {}
        self._running: set[str] = set()
        self._runners: list[asyncio.Task] = []
        self._reaper: asyncio.Task | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.job_workers,
            thread_name_prefix="repro-svc",
        )
        self._draining = False
        self._drained = False

    # ---- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Spawn the runner tasks (and the pool idle reaper)."""
        if self._runners:
            raise ServiceError("service already started")
        for _ in range(self.config.job_workers):
            self._runners.append(asyncio.create_task(self._run_jobs()))
        if self.config.idle_reap_s is not None:
            self._reaper = asyncio.create_task(self._reap_idle())

    async def drain(self) -> None:
        """Signal-safe shutdown: reject, cancel queued, finish running.

        Ordering matters: stop admitting first (new submissions get a
        structured ``draining`` rejection), cancel everything still
        queued, wait up to ``drain_timeout_s`` for running jobs, then
        tear down the executor and the worker pool, so a service
        embedded in a longer-lived process leaves no worker process
        behind once drained.
        """
        if self._draining:
            return
        self._draining = True
        for job in list(self.jobs.values()):
            if job.state == "queued":
                self._finish(job, "cancelled", error="service draining")
        for _ in self._runners:
            self._queue.put_nowait(None)
        if self._runners:
            try:
                await asyncio.wait_for(
                    asyncio.gather(*self._runners, return_exceptions=True),
                    timeout=self.config.drain_timeout_s,
                )
            except asyncio.TimeoutError:
                for task in self._runners:
                    task.cancel()
        if self._reaper is not None:
            self._reaper.cancel()
        self._executor.shutdown(wait=False, cancel_futures=True)
        shutdown_pool()
        self._drained = True

    @property
    def draining(self) -> bool:
        """Whether :meth:`drain` has begun (new submissions rejected)."""
        return self._draining

    @property
    def queue_depth(self) -> int:
        """Jobs admitted but not yet running."""
        return self._queued

    # ---- admission ---------------------------------------------------------

    def submit(
        self,
        tenant: str,
        experiment: str,
        params: dict[str, Any] | None = None,
    ) -> Job:
        """Admit one job, or raise a structured :class:`AdmissionError`.

        Submissions are idempotent on the deterministic job ID: a
        duplicate of an in-flight job returns the existing record
        without consuming queue budget. Re-submitting a *finished* job
        re-runs it — against a store the first run warmed, that second
        run is served by replay with zero engine invocations.
        """
        params = dict(params or {})
        if experiment not in ALL_EXPERIMENTS:
            raise ServiceError(
                f"unknown experiment {experiment!r}: one of "
                f"{', '.join(sorted(ALL_EXPERIMENTS))}"
            )
        if not tenant or not isinstance(tenant, str):
            raise ServiceError("tenant must be a non-empty string")
        reserved = _RESERVED_PARAMS.intersection(params)
        if reserved:
            raise ServiceError(
                f"params {sorted(reserved)} are service-owned; configure "
                "them on the server, not per submission"
            )
        accepted = _accepted_params(experiment)
        unknown = set() if accepted is None else set(params) - accepted
        if unknown:
            raise ServiceError(
                f"unknown params {sorted(unknown)} for {experiment!r}: "
                f"accepted are {sorted(accepted)}"
            )
        job_id = job_id_for(tenant, experiment, params)
        existing = self.jobs.get(job_id)
        if existing is not None and existing.state in ("queued", "running"):
            return existing
        retry = self.config.retry_after_s
        if self._draining:
            self._reject("draining")
            raise AdmissionError(
                "service is draining", reason="draining", retry_after_s=retry
            )
        if self._queued >= self.config.max_queue:
            self._reject("queue_full")
            raise AdmissionError(
                f"job queue is full ({self.config.max_queue} queued)",
                reason="queue_full",
                retry_after_s=retry,
            )
        if (
            self._tenant_inflight.get(tenant, 0)
            >= self.config.max_tenant_jobs
        ):
            self._reject("tenant_jobs")
            raise AdmissionError(
                f"tenant {tenant!r} already has "
                f"{self.config.max_tenant_jobs} jobs in flight",
                reason="tenant_jobs",
                retry_after_s=retry,
            )
        weight = cell_weight(experiment)
        if (
            self._tenant_cells.get(tenant, 0) + weight
            > self.config.max_tenant_cells
        ):
            self._reject("tenant_cells")
            raise AdmissionError(
                f"tenant {tenant!r} queued-cell budget exceeded "
                f"({self.config.max_tenant_cells} cells)",
                reason="tenant_cells",
                retry_after_s=retry,
            )
        job = Job(
            id=job_id,
            tenant=tenant,
            experiment=experiment,
            params=params,
            cells=weight,
            submitted_at=time.monotonic(),
        )
        self.jobs[job_id] = job
        self._queued += 1
        self._tenant_inflight[tenant] = (
            self._tenant_inflight.get(tenant, 0) + 1
        )
        self._tenant_cells[tenant] = (
            self._tenant_cells.get(tenant, 0) + weight
        )
        m = self.telemetry.metrics
        m.counter(_tn.SERVICE_ADMITTED_TOTAL).inc()
        m.gauge(_tn.SERVICE_QUEUE_DEPTH).set(self._queued)
        self._queue.put_nowait(job)
        return job

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; running/terminal jobs are not touched."""
        job = self.jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        if job.state != "queued":
            return False
        self._finish(job, "cancelled", error="cancelled by client")
        return True

    def _reject(self, reason: str) -> None:
        self.telemetry.metrics.counter(
            _tn.SERVICE_REJECTED_TOTAL
        ).inc(reason=reason)

    # ---- execution ---------------------------------------------------------

    async def _run_jobs(self) -> None:
        """One runner task: dequeue, execute on a thread, settle."""
        while True:
            job = await self._queue.get()
            if job is None:
                return
            if job.state != "queued":
                continue  # cancelled while queued
            self._dequeue(job)
            job.state = "running"
            self._running.add(job.id)
            loop = asyncio.get_running_loop()
            try:
                result, served = await loop.run_in_executor(
                    self._executor, self.run_job_blocking, job
                )
            except Exception as exc:  # driver bugs must not kill runners
                job.error = f"{type(exc).__name__}: {exc}"
                self._settle(job, "failed")
            else:
                job.result = result
                job.served = served
                self._settle(job, "done")

    def run_job_blocking(self, job: Job) -> tuple[Any, str]:
        """Execute one job's driver on the calling (worker) thread.

        Tries the replay path first when a store is configured and the
        driver supports it: a fully warm store serves the job with
        zero engine invocations (``served == "store"``), exactly like
        ``repro-knl replay``. Any missing cell falls back to a normal
        computing run (``served == "engine"``) whose results are
        bit-identical and which warms the store for next time.
        """
        driver = ALL_EXPERIMENTS[job.experiment]
        params = dict(job.params)
        if "seed" in params and not getattr(
            driver, "supports_seed", False
        ):
            # Mirror the CLI: --seed is ignored by deterministic
            # drivers rather than rejected.
            params.pop("seed")
        if self.config.store is not None and getattr(
            driver, "supports_replay", False
        ):
            store = get_store(self.config.store)
            try:
                with replay_session(store):
                    return driver(**params), "store"
            except StoreMissError:
                pass
        kwargs = dict(params)
        if self.config.jobs > 1 and getattr(driver, "supports_jobs", False):
            kwargs["jobs"] = self.config.jobs
        if self.config.store is not None and getattr(
            driver, "supports_store", False
        ):
            kwargs["store"] = self.config.store
        return driver(**kwargs), "engine"

    # ---- bookkeeping (loop thread only) ------------------------------------

    def _dequeue(self, job: Job) -> None:
        """Release the queue/tenant-cell budget a queued job held."""
        self._queued -= 1
        self._tenant_cells[job.tenant] = (
            self._tenant_cells.get(job.tenant, 0) - job.cells
        )
        self.telemetry.metrics.gauge(
            _tn.SERVICE_QUEUE_DEPTH
        ).set(self._queued)

    def _finish(self, job: Job, state: str, error: str | None = None) -> None:
        """Terminal transition for a job that never ran (cancelled)."""
        if job.state == "queued":
            self._dequeue(job)
        job.state = state
        if error is not None:
            job.error = error
        self._release(job)

    def _settle(self, job: Job, state: str) -> None:
        """Terminal transition for a job that ran (done/failed)."""
        self._running.discard(job.id)
        job.state = state
        self._release(job)

    def _release(self, job: Job) -> None:
        """Common terminal bookkeeping: budgets, metrics, waiters."""
        job.finished_at = time.monotonic()
        self._tenant_inflight[job.tenant] = (
            self._tenant_inflight.get(job.tenant, 1) - 1
        )
        m = self.telemetry.metrics
        m.counter(_tn.SERVICE_COMPLETED_TOTAL).inc(state=job.state)
        m.histogram(_tn.SERVICE_JOB_SECONDS).observe(
            job.finished_at - job.submitted_at
        )
        job.done.set()

    # ---- pool idle reaper --------------------------------------------------

    async def _reap_idle(self) -> None:
        """Periodically retire pool workers after sustained idleness.

        A quiet service should not pin ``jobs`` worker processes
        forever; the pool starts them again on the next sweep.
        """
        limit = self.config.idle_reap_s
        assert limit is not None
        while True:
            await asyncio.sleep(max(limit / 2.0, 0.05))
            pool = current_pool()
            if pool is not None:
                pool.reap_idle(limit)


# ---- NDJSON-over-TCP front end ---------------------------------------------


def _error_payload(exc: Exception) -> dict[str, Any]:
    """The structured error body for one failed request."""
    out: dict[str, Any] = {
        "v": PROTOCOL_VERSION,
        "ok": False,
        "error": type(exc).__name__,
        "message": str(exc),
    }
    if isinstance(exc, AdmissionError):
        out["reason"] = exc.reason
        out["retry_after_s"] = exc.retry_after_s
    return out


async def _handle_request(
    service: SweepService, request: dict[str, Any]
) -> dict[str, Any]:
    """Dispatch one decoded request to the service."""
    op = request.get("op")
    if op == "submit":
        job = service.submit(
            tenant=request.get("tenant", "default"),
            experiment=request.get("experiment", ""),
            params=request.get("params") or {},
        )
        payload = job.describe()
        if request.get("wait", True):
            timeout = request.get("timeout")
            await asyncio.wait_for(job.done.wait(), timeout=timeout)
            payload = job.describe()
            if job.state == "done":
                payload["result"] = result_to_wire(job.result)
        return {"v": PROTOCOL_VERSION, "ok": True, **payload}
    if op == "status":
        job = service.jobs.get(request.get("job_id", ""))
        if job is None:
            raise ServiceError(f"unknown job {request.get('job_id')!r}")
        return {"v": PROTOCOL_VERSION, "ok": True, **job.describe()}
    if op == "wait":
        job = service.jobs.get(request.get("job_id", ""))
        if job is None:
            raise ServiceError(f"unknown job {request.get('job_id')!r}")
        await asyncio.wait_for(
            job.done.wait(), timeout=request.get("timeout")
        )
        payload = job.describe()
        if job.state == "done":
            payload["result"] = result_to_wire(job.result)
        return {"v": PROTOCOL_VERSION, "ok": True, **payload}
    if op == "cancel":
        cancelled = service.cancel(request.get("job_id", ""))
        job = service.jobs[request["job_id"]]
        return {
            "v": PROTOCOL_VERSION,
            "ok": True,
            "cancelled": cancelled,
            **job.describe(),
        }
    if op == "metrics":
        return {
            "v": PROTOCOL_VERSION,
            "ok": True,
            "prometheus": metrics_to_prometheus(service.telemetry),
        }
    if op == "ping":
        return {"v": PROTOCOL_VERSION, "ok": True, "pong": True}
    raise ServiceError(
        f"unknown op {op!r}: one of submit, status, wait, cancel, "
        "metrics, ping"
    )


async def _handle_connection(
    service: SweepService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one client connection: one JSON line in, one line out."""
    try:
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                writer.write(
                    json.dumps(
                        _error_payload(
                            ServiceError("request line too long")
                        )
                    ).encode() + b"\n"
                )
                break
            if not line:
                break
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ServiceError("request must be a JSON object")
                response = await _handle_request(service, request)
            except asyncio.TimeoutError:
                response = _error_payload(
                    ServiceError("wait timed out; job still in flight")
                )
            except (ServiceError, ValueError) as exc:
                response = _error_payload(exc)
            writer.write(json.dumps(response).encode() + b"\n")
            await writer.drain()
    except (ConnectionResetError, BrokenPipeError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def start_server(
    service: SweepService, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Bind the NDJSON protocol for ``service`` on ``host:port``.

    ``port=0`` binds an ephemeral port; read the real one from
    ``server.sockets[0].getsockname()[1]``.
    """

    async def handler(reader, writer):
        await _handle_connection(service, reader, writer)

    return await asyncio.start_server(
        handler, host, port, limit=STREAM_LIMIT
    )


async def _serve_async(
    host: str, port: int, config: ServiceConfig
) -> None:
    """Run a server until SIGTERM/SIGINT, then drain and exit."""
    import signal
    import sys

    service = SweepService(config)
    await service.start()
    server = await start_server(service, host, port)
    bound = server.sockets[0].getsockname()
    print(
        f"repro-knl serve: listening on {bound[0]}:{bound[1]}",
        file=sys.stderr,
        flush=True,
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        # atexit does not run on SIGTERM, so without this a killed
        # service would leave its pool workers behind; the drain below
        # is the signal-safe teardown path.
        loop.add_signal_handler(sig, stop.set)
    await stop.wait()
    print("repro-knl serve: draining", file=sys.stderr, flush=True)
    await service.drain()
    server.close()
    await server.wait_closed()


def run_server(
    host: str = "127.0.0.1",
    port: int = 0,
    config: ServiceConfig | None = None,
) -> int:
    """Blocking entry point behind ``repro-knl serve``."""
    asyncio.run(_serve_async(host, port, config or ServiceConfig()))
    return 0
