"""Seeded, structure-neutral inputs for the benchmark's operations.

Every value drawn here is fresh within a run and leaves the structure of
the work unchanged: the same number of plans, phases, cells and engine
runs per operation whatever the seed. The ranges come from measured
phase counts:

* figure7 builds 1075 phases for any ``n`` strictly inside
  (6e9 - 125e6, 6e9). The default ``n`` itself is excluded.
* No drawn element count ``n`` is a multiple of 8. Megachunk sizes are
  multiples of 8 elements, so the last megachunk of a sort is then never
  a whole number of 64-byte cache lines. When it is, the cache-mode
  merge multipliers of two chunk sizes come out bit-equal, their plans
  share one structure, and the tensor path batches them together: two
  engine runs fewer for one n in eight.
* table1 and figure6 build 216 phases each under a ``SortCostModel``
  whose rates are perturbed by less than 0.1 %. Their ``sizes`` are
  never drawn: 216 phases at the defaults become 244 just below them.
* table3 and figure8 build 672 phases for any ``total_threads`` in
  [100, 272]. The default 256 is excluded.
* pareto builds 2235 phases for ``mcdram_scales`` perturbed around the
  defaults (0.5, 1.0, 2.0).
* energy (26 phases) and faults (98 phases, eight 250e6-element
  megachunks) keep their structure for ``n`` strictly inside
  (1.75e9, 2e9).
* table2 takes no parameters and is the same every round.
"""

from __future__ import annotations

import random

#: Drivers of one paper round, in ``repro-knl all`` order.
ROUND = (
    "table1", "figure6", "figure7", "table2", "table3", "figure8",
    "energy", "faults", "pareto",
)

#: Artifacts ``repro-knl replay`` can re-render from a store.
REPLAYABLE = (
    "table1", "figure6", "figure7", "table2", "table3", "figure8", "pareto",
)

FIGURE7_N = (6_000_000_000 - 125_000_000, 6_000_000_000)
SORT_N = (1_750_000_000, 2_000_000_000)
THREADS = tuple(t for t in range(100, 273) if t != 256)
COST_RATES = ("s_sort_random", "s_merge", "s_copy")
SCALES = (0.5, 1.0, 2.0)
JITTER = 1e-3


class Inputs:
    """A seeded source of fresh inputs; one per benchmark run."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self._used: set = set()
        self._threads: list[int] = []

    def _fresh(self, key: str, draw):
        while True:
            value = draw()
            if (key, value) not in self._used:
                self._used.add((key, value))
                return value

    def _open_int(self, key: str, bounds: tuple[int, int]) -> int:
        lo, hi = bounds

        def draw():
            n = self.rng.randrange(lo + 1, hi)
            return n if n % 8 else n + 1

        return self._fresh(key, draw)

    def _factor(self, key: str) -> float:
        def draw():
            jitter = self.rng.uniform(-JITTER, JITTER)
            return 1.0 + jitter if jitter else 1.0 + JITTER / 2

        return self._fresh(key, draw)

    def threads(self) -> int:
        """A thread count not used since the last reshuffle. The 172
        admissible values are dealt out in seeded order; a run that
        exhausts them deals them again (every other field of the design
        point stays fresh, and rounds share no memo)."""
        if not self._threads:
            self._threads = list(THREADS)
            self.rng.shuffle(self._threads)
        return self._threads.pop()

    def figure7_n(self) -> int:
        return self._open_int("figure7_n", FIGURE7_N)

    def design_point(self) -> list[list]:
        """One paper round: ``[driver, kwargs]`` for every driver of
        ``ROUND``, sharing one fresh design point."""
        cost = {rate: self._factor(rate) for rate in COST_RATES}
        scales = [s * self._factor(f"scale{s}") for s in SCALES]
        threads = self.threads()
        kwargs = {
            "table1": {"cost": cost},
            "figure6": {"cost": cost},
            "figure7": {"cost": cost, "n": self.figure7_n()},
            "table2": {},
            "table3": {"total_threads": threads},
            "figure8": {"total_threads": threads},
            "energy": {"n": self._open_int("energy_n", SORT_N)},
            "faults": {"n": self._open_int("faults_n", SORT_N)},
            "pareto": {"mcdram_scales": scales},
        }
        return [[name, kwargs[name]] for name in ROUND]
