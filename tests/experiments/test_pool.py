"""Tests for the process-lifetime sweep worker pool."""

from __future__ import annotations

import os

import pytest

from repro.errors import ConfigError, RetryExhaustedError
from repro.experiments.pool import (
    PersistentPool,
    current_pool,
    get_pool,
    shutdown_pool,
)
from repro.experiments.runner import sweep_map


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Each test starts and ends without the process-wide singleton."""
    shutdown_pool()
    yield
    shutdown_pool()


def _scalar(a: int, b: int) -> float:
    return a * 1.25 + b / 7.0


def _pair(a: int, b: int) -> tuple[float, float]:
    return a / 3.0, b * 1.5


def _record(a: int, b: int) -> dict:
    return {"a": a, "b": b, "sum": a + b}


def _mixed(a: int, b: int) -> tuple:
    return (a * 1.0, b, a > b)


def _boom(a: int, b: int) -> float:
    if a == 3:
        raise ValueError(f"cell {a} exploded")
    return float(a + b)


def _exit_hard(a: int, b: int) -> float:
    if a == 2:
        os._exit(13)  # kills the worker process outright
    return float(a + b)


def _pid(a: int, b: int) -> int:
    return os.getpid()


class TestDeterminism:
    def test_scalar_sweep_bit_identical_to_serial(self):
        cells = [(i, j) for i in range(8) for j in range(4)]
        serial = [_scalar(*c) for c in cells]
        out = get_pool(4).map(_scalar, cells)
        assert out == serial
        assert all(type(x) is float for x in out)

    def test_tuple_sweep_bit_identical_to_serial(self):
        cells = [(i, i + 1) for i in range(16)]
        serial = [_pair(*c) for c in cells]
        out = get_pool(2).map(_pair, cells)
        assert out == serial
        assert all(type(x) is tuple for x in out)

    def test_pickle_payloads_round_trip_type_exact(self):
        cells = [(i, 2 * i) for i in range(6)]
        assert get_pool(2).map(_record, cells) == [
            _record(*c) for c in cells
        ]
        mixed = get_pool(2).map(_mixed, cells)
        assert mixed == [_mixed(*c) for c in cells]
        # int stays int, bool stays bool — no float64 coercion.
        assert type(mixed[0][1]) is int and type(mixed[0][2]) is bool

    def test_sweep_map_parallel_matches_serial(self):
        cells = [(i, i) for i in range(10)]
        serial = sweep_map(_scalar, cells, memo={})
        par = sweep_map(_scalar, cells, jobs=4, memo={})
        assert par == serial

    def test_small_chunks_interleave_correctly(self):
        cells = [(i, 1) for i in range(40)]
        out = get_pool(3).map(_scalar, cells)
        assert out == [_scalar(*c) for c in cells]


class TestLifecycle:
    def test_workers_persist_across_maps(self):
        pool = get_pool(2)
        cells = [(i, 0) for i in range(16)]
        first = set(pool.map(_pid, cells))
        second = set(pool.map(_pid, cells))
        assert os.getpid() not in first
        # A pool that restarted its workers per map would show more
        # distinct worker pids than it has workers.
        assert len(first | second) <= pool.size

    def test_get_pool_grows_but_reuses_singleton(self):
        small = get_pool(1)
        big = get_pool(4)
        assert big is small
        assert big.size == min(4, os.cpu_count() or 1)
        assert big.map(_scalar, [(2, 2)]) == [_scalar(2, 2)]

    def test_shutdown_then_get_pool_respawns(self):
        first = get_pool(1)
        first.map(_scalar, [(1, 1)])
        shutdown_pool()
        assert current_pool() is None
        second = get_pool(1)
        assert second is not first
        assert second.map(_scalar, [(5, 5)]) == [_scalar(5, 5)]

    def test_bad_size_rejected(self):
        with pytest.raises(ConfigError):
            PersistentPool(0)

    def test_size_clamped_to_cpu_count(self):
        # Constructing the pool starts no process; only map() does.
        assert get_pool(10**6).size <= (os.cpu_count() or 1)


class TestFailure:
    def test_cell_exception_propagates(self):
        pool = get_pool(2)
        with pytest.raises(ValueError, match="exploded"):
            pool.map(_boom, [(i, 0) for i in range(6)])

    def test_pool_usable_after_cell_exception(self):
        pool = get_pool(2)
        with pytest.raises(ValueError):
            pool.map(_boom, [(3, 0)])
        assert pool.map(_scalar, [(1, 1)]) == [_scalar(1, 1)]

    def test_killed_worker_is_respawned_and_sweep_completes(self):
        pool = get_pool(2)
        before = set(pool.map(_pid, [(i, 0) for i in range(4)]))
        with pytest.raises(RetryExhaustedError):
            pool.map(_exit_hard, [(i, 0) for i in range(4)])
        # The broken workers were dropped: the next sweep starts fresh.
        cells = [(i, 1) for i in range(32)]
        assert pool.map(_scalar, cells) == [_scalar(*c) for c in cells]
        assert not set(pool.map(_pid, [(i, 0) for i in range(4)])) & before

    def test_crash_loop_raises_retry_exhausted(self):
        pool = get_pool(2)
        for _ in range(2):
            with pytest.raises(RetryExhaustedError) as excinfo:
                pool.map(_exit_hard, [(2, 0)])
            assert excinfo.value.attempts == 1
            assert "_exit_hard" in str(excinfo.value)


class TestMemoIntegration:
    def test_memo_warm_through_skips_redispatch(self):
        memo: dict = {}
        cells = [(i, 1) for i in range(8)]
        first = sweep_map(_scalar, cells, jobs=2, memo=memo)
        assert current_pool() is not None
        shutdown_pool()
        second = sweep_map(_scalar, cells, jobs=2, memo=memo)
        assert second == first
        assert current_pool() is None  # all cells memo hits

    def test_memo_warm_across_functions_sharing_cells(self):
        memo: dict = {}
        sweep_map(_scalar, [(1, 1)], jobs=2, memo=memo)
        # Different fn, same cell: distinct key, so it must compute.
        out = sweep_map(_pair, [(1, 1)], jobs=2, memo=memo)
        assert out == [_pair(1, 1)]
        assert len(memo) == 2
