"""Every paper driver renders the same bytes with and without a session.

Inside :func:`repro.telemetry.telemetry_session` a sweep runs each cell
serially on the reference engine loop and reads no cache tier, so the
session run is an oracle for the fast path a plain run takes (run-wise
tensor evaluation, closed-form pipeline lowering). The rendered table
plus CSV — what ``repro-knl <artifact> --csv -`` prints — must match
byte for byte, at each driver's defaults and at one perturbed design
point whose phase structure differs from the defaults'.
"""

from __future__ import annotations

import pytest

from repro.algorithms.costs import SortCostModel
from repro.experiments import ALL_EXPERIMENTS, runner
from repro.experiments.report import render_table, to_csv
from repro.telemetry import telemetry_session

_COST = SortCostModel()
_PERTURBED_COST = _COST.replace(
    s_sort_random=_COST.s_sort_random * 1.0007,
    s_merge=_COST.s_merge * 0.9996,
    s_copy=_COST.s_copy * 1.0003,
)

#: One design point off the defaults per driver (``{}``: no parameters).
PERTURBED = {
    "table1": {"cost": _PERTURBED_COST},
    "figure6": {"cost": _PERTURBED_COST},
    "figure7": {"cost": _PERTURBED_COST, "n": 5_999_000_001},
    "table2": {},
    "table3": {"total_threads": 200},
    "figure8": {"total_threads": 200},
    "energy": {"n": 1_900_000_003},
    "faults": {"n": 1_900_000_003},
    "pareto": {"mcdram_scales": (0.5005, 0.9995, 2.001)},
}


def rendered(name: str, kwargs: dict) -> str:
    result = ALL_EXPERIMENTS[name](**kwargs)
    return render_table(result) + "\n\n" + to_csv(result)


@pytest.fixture(autouse=True)
def _no_memo():
    runner._SWEEP_MEMO.clear()
    yield
    runner._SWEEP_MEMO.clear()


@pytest.mark.parametrize("point", ["defaults", "perturbed"])
@pytest.mark.parametrize("name", list(PERTURBED))
def test_output_identical_with_and_without_session(name, point):
    kwargs = {} if point == "defaults" else PERTURBED[name]
    fast = rendered(name, kwargs)
    runner._SWEEP_MEMO.clear()
    with telemetry_session():
        oracle = rendered(name, kwargs)
    assert fast == oracle
