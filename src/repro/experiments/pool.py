"""Process-lifetime worker pool behind :func:`sweep_map`'s ``jobs > 1``.

One :class:`~concurrent.futures.ProcessPoolExecutor`, created on the
first :meth:`PersistentPool.map` and kept for the life of the process,
so worker start-up is paid once rather than once per sweep. Workers
start with the ``spawn`` method: the sweep service calls :meth:`map`
from its job threads, and forking a process that runs threads is
unsafe.

Workers only compute. The parent reassembles results in cell order and
persists them (:func:`~repro.experiments.runner.sweep_map`'s
write-through), so workers never race on result-store files and a
parallel sweep is bit-identical to a serial one.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

from repro.errors import ConfigError, RetryExhaustedError


class PersistentPool:
    """Up to ``size`` worker processes, clamped to ``os.cpu_count()``.

    Use :func:`get_pool` rather than constructing directly, so every
    sweep of the process shares one set of workers.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ConfigError(f"pool size must be >= 1, got {size}")
        self.size = min(size, os.cpu_count() or 1)
        self._executor: ProcessPoolExecutor | None = None
        #: Serializes map() against teardown, so a reap or a resize can
        #: never stop workers under a sweep in flight.
        self._lock = threading.Lock()
        self._last_used = time.monotonic()

    def map(self, fn: Callable[..., Any], cells: Sequence[tuple]) -> list[Any]:
        """``[fn(*cell) for cell in cells]`` on the workers, in cell order.

        Exceptions raised by ``fn`` propagate. A worker that dies
        (killed, or ``os._exit`` in a cell) breaks the executor: the
        call raises :class:`~repro.errors.RetryExhaustedError` and the
        broken workers are dropped, so the next call starts fresh.
        """
        with self._lock:
            try:
                if self._executor is None:
                    self._executor = ProcessPoolExecutor(
                        self.size,
                        mp_context=multiprocessing.get_context("spawn"),
                    )
                futures = [self._executor.submit(fn, *cell) for cell in cells]
                try:
                    return [future.result() for future in futures]
                finally:
                    for future in futures:
                        future.cancel()
            except BrokenProcessPool as exc:
                self._stop()
                raise RetryExhaustedError(
                    "a sweep worker died while running "
                    f"{getattr(fn, '__qualname__', fn)!r}; its workers "
                    "were dropped and the next sweep starts fresh",
                    attempts=1,
                ) from exc
            finally:
                self._last_used = time.monotonic()

    def _stop(self) -> bool:
        """Stop the workers (caller holds the lock); True if any ran."""
        executor, self._executor = self._executor, None
        if executor is None:
            return False
        executor.shutdown(wait=True, cancel_futures=True)
        return True

    def _resize(self, size: int) -> None:
        """Raise the worker count to ``size`` (never lowers it)."""
        with self._lock:
            size = min(size, os.cpu_count() or 1)
            if size > self.size:
                self.size = size
                self._stop()  # the next map starts the larger executor

    def reap_idle(self, max_idle_s: float) -> bool:
        """Stop the workers if no map ran for ``max_idle_s`` seconds.

        Returns whether workers were stopped. Never waits on a sweep in
        flight: a busy pool is not idle. The next :meth:`map` starts
        the workers again.
        """
        if not self._lock.acquire(blocking=False):
            return False
        try:
            if time.monotonic() - self._last_used < max_idle_s:
                return False
            return self._stop()
        finally:
            self._lock.release()

    def shutdown(self) -> None:
        """Stop the workers, waiting for a sweep in flight. Idempotent."""
        with self._lock:
            self._stop()


#: The process-wide pool (``None`` until first use); the service's job
#: threads may race to create it, hence the lock.
_POOL: PersistentPool | None = None
_POOL_LOCK = threading.Lock()


def get_pool(jobs: int) -> PersistentPool:
    """The shared pool, created lazily and grown to ``jobs`` workers."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = PersistentPool(jobs)
        else:
            _POOL._resize(jobs)
        return _POOL


def current_pool() -> PersistentPool | None:
    """The shared pool if one exists; never creates one."""
    return _POOL


def shutdown_pool() -> None:
    """Stop and forget the shared pool (service drain, tests, atexit)."""
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown()


atexit.register(shutdown_pool)
