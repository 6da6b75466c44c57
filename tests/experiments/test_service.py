"""Tests for the sweep service and the process-lifetime bug fixes.

Covers the service's admission control, job lifecycle, NDJSON wire
protocol, and warm-store replay guarantee, plus regression tests for
the fixes that made long-lived processes safe: signal-tolerant pool
teardown, idle worker reaping, and the validating backfill probe.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import AdmissionError, ConfigError, ServiceError
from repro.experiments import ALL_EXPERIMENTS, run_table2, run_table3
from repro.experiments.client import ServiceClient
from repro.experiments.pool import (
    PersistentPool,
    current_pool,
    shutdown_pool,
)
from repro.experiments import runner
from repro.experiments.runner import (
    ExperimentResult,
    replay_session,
    sweep_map,
)
from repro.experiments.service import (
    DEFAULT_CELL_WEIGHT,
    ServiceConfig,
    SweepService,
    job_id_for,
    result_from_wire,
    result_to_wire,
    start_server,
)
from repro.experiments.store import ResultStore, get_store
from repro.simknl.node import KNLNode
from repro.telemetry import names as _tn


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Each test starts and ends without the process-wide singleton."""
    shutdown_pool()
    yield
    shutdown_pool()


def _cost_cell(a: int, b: int) -> float:
    return a * 1.25 + b / 7.0


def _probe_cell(a: int, b: int) -> tuple:
    _probe_cell.calls.append((a, b))
    return (a / 3.0, a * b)


_probe_cell.calls = []


def _blocking_driver(release: threading.Event, started=None):
    """A fake experiment driver that parks until ``release`` is set."""

    def driver(**kwargs):
        if started is not None:
            started.set()
        assert release.wait(timeout=30), "driver never released"
        return ExperimentResult("svc_slow", "slow", ["v"], [{"v": 1.0}])

    return driver


def _entry_files(root: Path) -> list[Path]:
    return sorted((root / "v1").rglob("*.json"))


class TestAdmissionControl:
    def test_queue_full_rejects_with_retry_after(self):
        svc = SweepService(ServiceConfig(max_queue=2, max_tenant_jobs=8))
        svc.submit("a", "table2", {"seed": 1})
        svc.submit("a", "table2", {"seed": 2})
        with pytest.raises(AdmissionError) as exc:
            svc.submit("b", "table2", {"seed": 3})
        assert exc.value.reason == "queue_full"
        assert exc.value.retry_after_s > 0
        counter = svc.telemetry.metrics.counter(
            _tn.SERVICE_REJECTED_TOTAL
        )
        assert counter.value(reason="queue_full") == 1

    def test_tenant_job_quota(self):
        svc = SweepService(
            ServiceConfig(max_queue=8, max_tenant_jobs=1)
        )
        svc.submit("alice", "table2", {"seed": 1})
        with pytest.raises(AdmissionError) as exc:
            svc.submit("alice", "table2", {"seed": 2})
        assert exc.value.reason == "tenant_jobs"
        # Another tenant is unaffected by alice's quota.
        svc.submit("bob", "table2", {"seed": 2})

    def test_tenant_cell_budget(self):
        svc = SweepService(
            ServiceConfig(
                max_queue=8,
                max_tenant_jobs=8,
                max_tenant_cells=DEFAULT_CELL_WEIGHT,
            )
        )
        svc.submit("alice", "adaptive", {"seed": 1})
        with pytest.raises(AdmissionError) as exc:
            svc.submit("alice", "adaptive", {"seed": 2})
        assert exc.value.reason == "tenant_cells"

    def test_duplicate_inflight_submission_is_idempotent(self):
        svc = SweepService(ServiceConfig(max_queue=1))
        first = svc.submit("a", "table2", {"seed": 1})
        again = svc.submit("a", "table2", {"seed": 1})
        assert again is first  # no queue budget consumed
        admitted = svc.telemetry.metrics.counter(
            _tn.SERVICE_ADMITTED_TOTAL
        )
        assert admitted.value() == 1

    def test_draining_rejects_new_submissions(self):
        svc = SweepService(ServiceConfig())
        asyncio.run(svc.drain())
        with pytest.raises(AdmissionError) as exc:
            svc.submit("a", "table2")
        assert exc.value.reason == "draining"

    def test_unknown_experiment_rejected(self):
        svc = SweepService(ServiceConfig())
        with pytest.raises(ServiceError, match="unknown experiment"):
            svc.submit("a", "nope")

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ConfigError, match="jobs"):
            SweepService(ServiceConfig(jobs=0))

    def test_reserved_params_rejected(self):
        svc = SweepService(ServiceConfig())
        with pytest.raises(ServiceError, match="service-owned"):
            svc.submit("a", "table2", {"jobs": 8})

    def test_unknown_params_rejected_at_admission(self):
        svc = SweepService(ServiceConfig())
        with pytest.raises(ServiceError, match=r"unknown params \['bogus'\]"):
            svc.submit("a", "table2", {"bogus": 1})
        with pytest.raises(ServiceError, match="'nope'"):
            svc.submit("a", "figure7", {"n": 10**9, "nope": 2})
        assert svc.jobs == {}
        # Driver keywords and ``seed`` (ignored, as on the CLI) pass.
        svc.submit("a", "table3", {"repeats": [1, 2]})
        svc.submit("a", "table2", {"seed": 7})
        assert len(svc.jobs) == 2

    def test_job_ids_deterministic_and_param_order_free(self):
        a = job_id_for("t", "figure7", {"x": 1, "y": 2})
        b = job_id_for("t", "figure7", {"y": 2, "x": 1})
        c = job_id_for("t", "figure7", {"x": 1, "y": 3})
        assert a == b
        assert a != c
        assert a != job_id_for("other", "figure7", {"x": 1, "y": 2})


class TestLifecycle:
    def test_cancel_mid_queue(self, monkeypatch):
        release = threading.Event()
        started = threading.Event()
        monkeypatch.setitem(
            ALL_EXPERIMENTS, "svc_slow", _blocking_driver(release, started)
        )

        async def scenario():
            svc = SweepService(
                ServiceConfig(job_workers=1, max_tenant_jobs=8)
            )
            await svc.start()
            running = svc.submit("a", "svc_slow", {"i": 1})
            queued = svc.submit("a", "svc_slow", {"i": 2})
            await asyncio.get_running_loop().run_in_executor(
                None, started.wait, 10
            )
            assert running.state == "running"
            assert queued.state == "queued"
            assert svc.cancel(queued.id) is True
            assert queued.state == "cancelled"
            assert queued.done.is_set()
            # A running job cannot be cancelled, only awaited.
            assert svc.cancel(running.id) is False
            release.set()
            await asyncio.wait_for(running.done.wait(), timeout=30)
            assert running.state == "done"
            completed = svc.telemetry.metrics.counter(
                _tn.SERVICE_COMPLETED_TOTAL
            )
            assert completed.value(state="cancelled") == 1
            assert completed.value(state="done") == 1
            await svc.drain()

        asyncio.run(scenario())

    def test_failed_driver_reports_error(self, monkeypatch):
        def boom(**kwargs):
            raise ValueError("cell exploded")

        monkeypatch.setitem(ALL_EXPERIMENTS, "svc_boom", boom)

        async def scenario():
            svc = SweepService(ServiceConfig())
            await svc.start()
            job = svc.submit("a", "svc_boom")
            await asyncio.wait_for(job.done.wait(), timeout=30)
            assert job.state == "failed"
            assert "ValueError" in job.error
            assert "cell exploded" in job.error
            await svc.drain()

        asyncio.run(scenario())

    def test_drain_cancels_queued_and_finishes_running(self, monkeypatch):
        release = threading.Event()
        started = threading.Event()
        monkeypatch.setitem(
            ALL_EXPERIMENTS, "svc_slow", _blocking_driver(release, started)
        )

        async def scenario():
            svc = SweepService(
                ServiceConfig(job_workers=1, max_tenant_jobs=8)
            )
            await svc.start()
            running = svc.submit("a", "svc_slow", {"i": 1})
            queued = svc.submit("a", "svc_slow", {"i": 2})
            await asyncio.get_running_loop().run_in_executor(
                None, started.wait, 10
            )
            release.set()
            await svc.drain()
            assert running.state == "done"
            assert queued.state == "cancelled"
            with pytest.raises(AdmissionError):
                svc.submit("a", "svc_slow", {"i": 3})

        asyncio.run(scenario())


class _Server:
    """Run a service + TCP server inside one test coroutine."""

    def __init__(self, config: ServiceConfig) -> None:
        self.service = SweepService(config)
        self.server = None
        self.port = None

    async def __aenter__(self) -> "_Server":
        await self.service.start()
        self.server = await start_server(self.service)
        self.port = self.server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc) -> None:
        await self.service.drain()
        self.server.close()
        await self.server.wait_closed()


def _submit_blocking(port, experiment, tenant, **kwargs):
    with ServiceClient("127.0.0.1", port) as client:
        return client.submit(experiment, tenant=tenant, **kwargs)


class TestWireProtocol:
    def test_concurrent_tenants_bit_identical(self, tmp_path):
        """Two tenants' concurrent jobs match direct driver runs."""
        direct = {
            "table2": result_to_wire(run_table2()),
            "table3": result_to_wire(run_table3()),
        }

        async def scenario():
            config = ServiceConfig(store=str(tmp_path), jobs=2)
            async with _Server(config) as srv:
                loop = asyncio.get_running_loop()
                submissions = [
                    ("alice", "table2"),
                    ("alice", "table3"),
                    ("bob", "table2"),
                    ("bob", "table3"),
                ]
                responses = await asyncio.gather(*[
                    loop.run_in_executor(
                        None, _submit_blocking, srv.port, exp, tenant
                    )
                    for tenant, exp in submissions
                ])
            for (tenant, exp), response in zip(submissions, responses):
                assert response["state"] == "done"
                assert json.dumps(
                    response["result"], sort_keys=True
                ) == json.dumps(direct[exp], sort_keys=True)

        asyncio.run(scenario())

    def test_unknown_params_rejected_over_the_wire(self):
        async def scenario():
            async with _Server(ServiceConfig()) as srv:
                loop = asyncio.get_running_loop()

                def submit_bogus():
                    with ServiceClient("127.0.0.1", srv.port) as c:
                        with pytest.raises(ServiceError) as exc:
                            c.submit(
                                "table2", tenant="a", params={"bogus": 1}
                            )
                        return exc.value

                err = await loop.run_in_executor(None, submit_bogus)
                assert "bogus" in str(err)
                assert srv.service.jobs == {}

        asyncio.run(scenario())

    def test_queue_full_over_the_wire_never_hangs(self, monkeypatch):
        release = threading.Event()
        monkeypatch.setitem(
            ALL_EXPERIMENTS, "svc_slow", _blocking_driver(release)
        )

        async def scenario():
            config = ServiceConfig(
                job_workers=1, max_queue=1, max_tenant_jobs=8
            )
            async with _Server(config) as srv:
                loop = asyncio.get_running_loop()

                def fill_then_overflow():
                    with ServiceClient("127.0.0.1", srv.port) as c:
                        c.submit(
                            "svc_slow", tenant="a",
                            params={"i": 1}, wait=False,
                        )
                        c.submit(
                            "svc_slow", tenant="a",
                            params={"i": 2}, wait=False,
                        )
                        with pytest.raises(AdmissionError) as exc:
                            c.submit(
                                "svc_slow", tenant="a",
                                params={"i": 3}, wait=False,
                            )
                        return exc.value

                t0 = time.monotonic()
                rejection = await asyncio.wait_for(
                    loop.run_in_executor(None, fill_then_overflow),
                    timeout=10,
                )
                assert time.monotonic() - t0 < 10
                assert rejection.reason == "queue_full"
                assert rejection.retry_after_s > 0
                release.set()

        asyncio.run(scenario())

    def test_status_wait_cancel_and_metrics_verbs(self, monkeypatch):
        release = threading.Event()
        started = threading.Event()
        monkeypatch.setitem(
            ALL_EXPERIMENTS, "svc_slow", _blocking_driver(release, started)
        )

        async def scenario():
            config = ServiceConfig(job_workers=1, max_tenant_jobs=8)
            async with _Server(config) as srv:
                loop = asyncio.get_running_loop()

                def converse():
                    with ServiceClient("127.0.0.1", srv.port) as c:
                        assert c.ping()
                        running = c.submit(
                            "svc_slow", tenant="a",
                            params={"i": 1}, wait=False,
                        )
                        queued = c.submit(
                            "svc_slow", tenant="a",
                            params={"i": 2}, wait=False,
                        )
                        started.wait(10)
                        assert c.status(
                            running["job_id"]
                        )["state"] == "running"
                        assert c.cancel(queued["job_id"]) is True
                        assert c.status(
                            queued["job_id"]
                        )["state"] == "cancelled"
                        release.set()
                        done = c.wait(running["job_id"], timeout=30)
                        assert done["state"] == "done"
                        text = c.metrics()
                        assert "service_admitted_total 2" in text
                        assert (
                            'service_completed_total{state="done"} 1'
                            in text
                        )
                        with pytest.raises(ServiceError):
                            c.status("no-such-job")

                await asyncio.wait_for(
                    loop.run_in_executor(None, converse), timeout=30
                )

        asyncio.run(scenario())

    def test_warm_store_serves_with_zero_engine_invocations(
        self, tmp_path, monkeypatch
    ):
        """A re-submitted job replays from the store: no engine work."""

        async def scenario():
            config = ServiceConfig(store=str(tmp_path), jobs=1)
            async with _Server(config) as srv:
                loop = asyncio.get_running_loop()
                first = await loop.run_in_executor(
                    None, _submit_blocking, srv.port, "figure7", "a"
                )
                assert first["state"] == "done"

                engine_calls = []
                original = KNLNode.run

                def counting_run(self, plan):
                    engine_calls.append(plan)
                    return original(self, plan)

                monkeypatch.setattr(KNLNode, "run", counting_run)
                second = await loop.run_in_executor(
                    None, _submit_blocking, srv.port, "figure7", "b"
                )
                assert second["state"] == "done"
                assert second["served"] == "store"
                assert engine_calls == []
                assert second["result"] == first["result"]

        asyncio.run(scenario())

    def test_result_round_trip_renders_identically(self):
        from repro.experiments.report import render_table, to_csv

        direct = run_table2()
        back = result_from_wire(
            json.loads(json.dumps(result_to_wire(direct)))
        )
        assert render_table(back) == render_table(direct)
        assert to_csv(back) == to_csv(direct)


def _pid_cell(a: int, b: int) -> int:
    return os.getpid()


def _live_children(pid: int) -> set[int]:
    """Pids of the live (non-zombie) processes whose parent is ``pid``."""
    children = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == pid and state != "Z":
            children.add(int(entry))
    return children


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie awaiting its reaper does not)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="reads process state from /proc"
)
class TestSignalSafeTeardown:
    def test_shutdown_after_worker_death(self):
        pool = PersistentPool(2)
        pids = set(pool.map(_pid_cell, [(i, 1) for i in range(8)]))
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        pool.shutdown()
        pool.shutdown()  # idempotent
        assert not any(_alive(pid) for pid in pids)
        # A shut-down pool starts fresh workers on demand.
        serial = [_cost_cell(i, 1) for i in range(8)]
        assert pool.map(_cost_cell, [(i, 1) for i in range(8)]) == serial
        pool.shutdown()

    def test_idle_reap_retires_quiet_workers(self):
        pool = PersistentPool(2)
        serial = [_cost_cell(i, 1) for i in range(8)]
        assert pool.map(_cost_cell, [(i, 1) for i in range(8)]) == serial
        pids = set(pool.map(_pid_cell, [(i, 1) for i in range(8)]))
        time.sleep(0.12)
        assert pool.reap_idle(0.05) is True
        assert not any(_alive(pid) for pid in pids)
        assert pool.reap_idle(0.05) is False  # nothing left to reap
        # The pool respawns on demand and stays bit-identical.
        assert pool.map(_cost_cell, [(i, 1) for i in range(8)]) == serial
        pool.shutdown()

    def test_reap_idle_spares_recently_used_pool(self):
        pool = PersistentPool(2)
        pids = set(pool.map(_pid_cell, [(1, 1)]))
        assert pool.reap_idle(3600.0) is False
        assert all(_alive(pid) for pid in pids)
        pool.shutdown()

    def test_drain_stops_pool_workers(self, monkeypatch):
        # An empty memo, so energy's cells cannot be served from what
        # earlier tests in this process computed.
        monkeypatch.setattr(runner, "_SWEEP_MEMO", {})

        async def scenario():
            svc = SweepService(ServiceConfig(jobs=2))
            await svc.start()
            job = svc.submit("a", "energy")
            await asyncio.wait_for(job.done.wait(), timeout=60)
            assert job.state == "done", job.error
            pool = current_pool()
            assert pool is not None  # energy's cells reached the pool
            pids = set(pool.map(_pid_cell, [(i, 1) for i in range(4)]))
            await svc.drain()
            return pids

        pids = asyncio.run(scenario())
        assert current_pool() is None
        assert not any(_alive(pid) for pid in pids)

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="no /dev/shm on this platform"
    )
    def test_serve_sigterm_drains_without_shm_leak(self, tmp_path):
        before = set(os.listdir("/dev/shm"))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[2] / "src"
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--store", str(tmp_path), "--jobs", "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            line = proc.stderr.readline()
            assert "listening on" in line, line
            port = int(line.rsplit(":", 1)[1])
            # faults sends its cells to the worker pool (figure7's are
            # all evaluated in-process), so the server starts workers.
            response = _submit_blocking(port, "faults", "a")
            assert response["state"] == "done", response
            children = _live_children(proc.pid)
            assert children, "faults started no pool workers"
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "leaked" not in err  # resource_tracker stayed quiet
        leaked = {
            n for n in set(os.listdir("/dev/shm")) - before
            if n.startswith("psm_")
        }
        assert leaked == set()
        # Helpers such as the resource tracker exit once the server
        # closes their pipe; give them a moment, then nothing may live.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and any(map(_alive, children)):
            time.sleep(0.05)
        assert not {pid for pid in children if _alive(pid)}


class TestValidatingProbe:
    def test_probe_validates_without_stats_or_lru_touch(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k" * 16, (1.5, "x"), fn="f")
        path = _entry_files(tmp_path)[0]
        os.utime(path, (1000, 1000))
        assert store.probe("k" * 16, fn="f") is True
        assert store.stats.hits == 0  # not counted as a hit
        assert path.stat().st_mtime == 1000  # LRU clock untouched
        assert store.probe("m" * 16) is False  # absent, not corrupt
        assert store.stats.corrupt == 0
        assert store.probe("k" * 16, fn="other") is False
        assert store.stats.corrupt == 1
        path.write_text("{garbage")
        assert store.probe("k" * 16, fn="f") is False
        assert store.stats.corrupt == 2

    def test_memo_hit_rewrites_corrupt_entry_for_replay(self, tmp_path):
        """Regression: corrupt entries behind memo hits get rewritten."""
        cells = [(2, 3), (4, 5)]
        memo: dict = {}
        store_path = str(tmp_path)
        expect = sweep_map(
            _probe_cell, cells, memo=memo, store=store_path
        )
        for path in _entry_files(tmp_path):
            path.write_text("{corrupt")
        # Every cell is a memo hit; the old existence-only probe
        # skipped the backfill here and left replay broken.
        again = sweep_map(_probe_cell, cells, memo=memo, store=store_path)
        assert again == expect
        _probe_cell.calls.clear()
        with replay_session(get_store(store_path)):
            replayed = sweep_map(_probe_cell, cells, memo={})
        assert replayed == expect
        assert _probe_cell.calls == []  # replay never computes
