"""Host-speed calibration of the benchmark's timings.

On a shared VM the host's speed drifts by 25 % and more between minutes,
and a run's median wall time follows it. ``probe()`` times a fixed
kernel that never calls the program: interpreted Python (dict and tuple
work, float arithmetic, calls) with a little NumPy, the mix the program
spends its time in. It runs on the same CPU as every child, between
operations, so the probes around an operation see the host as the
operation saw it.

``Calibrated`` scales each operation's wall time by a reference time
over the mean of the probes just before and just after it: the time
the operation would have taken on a host where the probe takes the
reference time. A change to the program moves the scaled time as much
as the wall time; a change of host speed moves the probes too and
cancels out.

An operation that is mostly a cold interpreter start and imports (one
``repro-knl`` process) slows differently: against the kernel its
elasticity was 0.58, against a bare ``python -c pass`` 0.81. Such
operations are probed with an interpreter start instead, against
``START_REFERENCE_S``.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

import numpy as np

#: Kernel time at the reference host speed, in seconds: the probes'
#: median between operations on a 2-vCPU Xeon KVM guest in its usual,
#: slower regime, so calibrated times read close to wall times there.
REFERENCE_S = 0.0014
#: Wall time of a bare interpreter start at the reference speed, on the
#: same guest.
START_REFERENCE_S = 0.060
#: Kernel runs per probe; a probe is their median.
PROBE_RUNS = 5


def kernel() -> float:
    """Fixed work that takes ``REFERENCE_S`` at the reference speed."""
    table: dict[tuple[int, int], float] = {}
    acc = 0.0
    for i in range(1500):
        key = (i % 37, i & 7)
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += math.sqrt(i + 1.0) / (1 + (i % 5))
    arr = np.arange(1024, dtype=float)
    for _ in range(24):
        arr = np.sqrt(arr * 1.0001 + 1.0)
    return acc + sum(table.values()) + float(arr.sum())


def probe() -> float:
    """Median kernel time now, in seconds, with the garbage collector
    off so that the load generator's own heap does not show."""
    times = []
    gc.disable()
    try:
        for _ in range(PROBE_RUNS):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


class Calibrated:
    """Probes between operations, and the scale of each span between
    two consecutive probes. ``probe_s`` returns one probe's time, in
    seconds, of work that takes ``reference_s`` at the reference
    speed."""

    def __init__(
        self, probe_s=probe, reference_s: float = REFERENCE_S
    ) -> None:
        self.probe_s = probe_s
        self.reference_s = reference_s
        self.probe_s()  # warms NumPy's lazy set-up or the page cache
        self.probes: list[float] = []
        self.reset()

    def reset(self) -> None:
        """Probe now, to start a span after untimed work."""
        self.last = self.probe_s()

    def mark(self) -> float:
        """Probe now; return the scale of the span since the last
        probe: the reference time over the mean of its two probes."""
        now = self.probe_s()
        self.probes.append(now)
        scale = 2 * self.reference_s / (self.last + now)
        self.last = now
        return scale
