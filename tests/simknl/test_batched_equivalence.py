"""Property tests pinning batched plan evaluation to the per-phase
reference loop.

``Plan.compile()`` groups consecutive ``static_rates`` phases sharing a
flow structure; ``Engine.run`` evaluates those groups with one
water-filling solve and NumPy array ops. ``Engine(batch_phases=False)``
keeps every phase on the per-phase reference loop, and these tests hold
the two bit-identical — ``elapsed``, ``phase_times``, and ``traffic``
— across strategies, odd-sized final chunks, and random plans, and
assert the documented fallbacks (faults, telemetry, recorded events,
dynamic-rate phases) really do bypass the batched path. The same plans
are also held to the sweep evaluator (:func:`lower_plan` plus
:func:`run_lowered`, run by run), which evaluates single plans too.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernel import StreamKernel
from repro.core.multilevel import ThreeLevelConfig, ThreeLevelPipeline
from repro.errors import SimulationError
from repro.faults import FaultPlan
from repro.simknl.batch import lower_plan, run_lowered
from repro.simknl.engine import Engine, Phase, Plan
from repro.simknl.flows import Flow, Resource
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode
from repro.telemetry import runtime as _tm
from repro.units import GB, GiB, MiB

RESOURCES = [
    Resource("ddr", 90 * GB),
    Resource("mcdram", 400 * GB),
    Resource("nvm", 10 * GB),
]


def run_both(plan: Plan, **engine_kw) -> tuple:
    fast = Engine(
        RESOURCES, record_events=False, batch_phases=True, **engine_kw
    )
    ref = Engine(
        RESOURCES, record_events=False, batch_phases=False, **engine_kw
    )
    return fast, fast.run(plan), ref, ref.run(plan)


def assert_identical(a, b) -> None:
    assert a.elapsed == b.elapsed
    assert a.phase_times == b.phase_times
    assert a.traffic == b.traffic


def runwise(plan: Plan, resources=RESOURCES):
    """``plan`` on the sweep evaluator, as a one-row tensor."""
    low = lower_plan(plan)
    engine = Engine(resources, record_events=False)
    (result,) = run_lowered(engine, low.sweep, low.row[None, :])
    return result


# ---- pipeline strategies, including odd-sized final chunks ---------------


@pytest.mark.parametrize("strategy", ["direct", "single", "double"])
@pytest.mark.parametrize(
    "data_bytes",
    [int(20 * GiB), int(20 * GiB) + 8, int(50 * GiB) - 8],
)
def test_pipeline_strategies_bit_identical(strategy, data_bytes):
    def result(batch: bool):
        node = KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))
        pipe = ThreeLevelPipeline(
            node,
            StreamKernel(passes=3),
            ThreeLevelConfig(data_bytes=data_bytes),
        )
        pipe._engine.batch_phases = batch
        res = pipe.run(strategy)
        return res, pipe._engine.batched_groups

    fast, fast_groups = result(True)
    ref, ref_groups = result(False)
    assert_identical(fast, ref)
    node = KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))
    pipe = ThreeLevelPipeline(
        node, StreamKernel(passes=3), ThreeLevelConfig(data_bytes=data_bytes)
    )
    assert_identical(
        runwise(
            pipe.build_plan(strategy),
            [*node.resources(), pipe.nvm.resource()],
        ),
        ref,
    )
    assert ref_groups == 0
    if strategy == "single":
        assert fast_groups >= 1  # the triple-buffered steady state


def test_single_strategy_uses_batched_path():
    node = KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))
    pipe = ThreeLevelPipeline(
        node, StreamKernel(passes=2), ThreeLevelConfig(data_bytes=30 * GiB)
    )
    pipe.run("single")
    assert pipe._engine.batched_groups >= 1


def test_compare_shares_one_engine():
    node = KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))
    pipe = ThreeLevelPipeline(
        node, StreamKernel(passes=2), ThreeLevelConfig(data_bytes=30 * GiB)
    )
    pipe.compare()
    solves_after_first = len(pipe._engine._rate_cache)
    assert solves_after_first > 0
    pipe.compare()  # every solve is memoized on the shared engine now
    assert len(pipe._engine._rate_cache) == solves_after_first


# ---- random plans: batched == reference ----------------------------------

flow_strategy = st.tuples(
    st.integers(min_value=1, max_value=64),       # threads
    st.sampled_from([0.2, 1.0, 4.8]),             # per-thread rate (GB/s)
    st.sampled_from(["ddr", "mcdram", "nvm"]),    # extra resource
    st.integers(min_value=0, max_value=30),       # bytes (GiB; 0 = idle)
)

phase_strategy = st.tuples(
    st.booleans(),                                # static_rates
    st.lists(flow_strategy, min_size=1, max_size=3),
)


def build_plan(phases, repeats: int) -> Plan:
    """A plan whose static phases repeat structurally ``repeats`` times
    with varying byte demands — the steady-state shape compile groups."""
    plan = Plan("prop")
    for p, (static, flows) in enumerate(phases):
        for rep in range(repeats if static else 1):
            fl = [
                Flow(
                    f"f{p}.{i}",
                    threads,
                    rate * GB,
                    {"ddr": 1.0, extra: 0.5},
                    float(nbytes * GiB + rep),  # bytes vary per repeat
                )
                for i, (threads, rate, extra, nbytes) in enumerate(flows)
            ]
            if all(f.bytes_total == 0 for f in fl):
                fl[0] = Flow(
                    f"f{p}.0", 1, 1.0 * GB, {"ddr": 1.0}, float(GiB)
                )
            plan.add(Phase(f"p{p}.{rep}", fl, static_rates=static))
    return plan


@settings(max_examples=80, deadline=None)
@given(
    phases=st.lists(phase_strategy, min_size=1, max_size=4),
    repeats=st.integers(min_value=1, max_value=6),
)
def test_random_plans_bit_identical(phases, repeats):
    plan = build_plan(phases, repeats)
    _, fast_res, _, ref_res = run_both(plan)
    assert_identical(fast_res, ref_res)
    assert_identical(runwise(plan), ref_res)


def test_zero_byte_flows_drop_out_of_structure():
    """A zero-byte flow is dead weight in the reference loop; the
    compiled structure must skip it identically."""
    plan = Plan("zeros")
    for i in range(4):
        plan.add(
            Phase(
                f"s{i}",
                [
                    Flow("live", 8, 1.0 * GB, {"ddr": 1.0}, float(GiB + i)),
                    Flow("idle", 8, 1.0 * GB, {"mcdram": 1.0}, 0.0),
                ],
                static_rates=True,
            )
        )
    fast, fast_res, _, ref_res = run_both(plan)
    assert_identical(fast_res, ref_res)
    assert fast.batched_groups == 1
    assert fast_res.traffic["mcdram"] == 0.0


# ---- fallbacks -----------------------------------------------------------


def steady_plan(n: int = 8) -> Plan:
    plan = Plan("steady")
    for i in range(n):
        plan.add(
            Phase(
                f"s{i}",
                [
                    Flow("in", 8, 0.6 * GB, {"nvm": 1.0}, float(4 * GiB)),
                    Flow("comp", 224, 1.0 * GB, {"ddr": 1.0}, float(8 * GiB + i)),
                ],
                static_rates=True,
            )
        )
    return plan


def test_faulted_runs_fall_back_to_reference():
    plan = steady_plan()
    injector = FaultPlan.degraded_mcdram(seed=7, intensity=0.5).injector()
    faulted = Engine(RESOURCES, record_events=False, injector=injector)
    res = faulted.run(plan)
    assert faulted.batched_groups == 0
    # ... and matches a reference engine driven by an identical plan.
    ref_injector = FaultPlan.degraded_mcdram(seed=7, intensity=0.5).injector()
    ref = Engine(
        RESOURCES,
        record_events=False,
        injector=ref_injector,
        batch_phases=False,
    )
    assert_identical(res, ref.run(plan))


def test_telemetry_enabled_runs_fall_back():
    plan = steady_plan()
    eng = Engine(RESOURCES, record_events=False)
    with _tm.telemetry_session():
        res_tel = eng.run(plan)
    assert eng.batched_groups == 0
    res_fast = eng.run(plan)
    assert eng.batched_groups == 1
    assert_identical(res_tel, res_fast)


def test_recorded_events_fall_back():
    plan = steady_plan()
    eng = Engine(RESOURCES, record_events=True)
    res = eng.run(plan)
    assert eng.batched_groups == 0
    assert res.events  # flow completions were recorded


def test_phase_hooks_fall_back():
    plan = steady_plan()
    eng = Engine(RESOURCES, record_events=False)
    eng.add_phase_hook(lambda engine, index, phase: 0.0)
    eng.run(plan)
    assert eng.batched_groups == 0


def test_starved_group_raises_like_reference():
    """A zero-rate allocation (defensive; unreachable through the real
    max-min allocator) must make the batched path fall back to the
    reference loop, which raises the per-phase starvation error."""
    plan = Plan("starved")
    for i in range(3):
        plan.add(
            Phase(
                f"s{i}",
                [Flow("f", 8, 1.0 * GB, {"ddr": 1.0}, float(GiB))],
                static_rates=True,
            )
        )
    for batch in (True, False):
        eng = Engine(RESOURCES, record_events=False, batch_phases=batch)
        eng._allocate = lambda live: [0.0] * len(live)
        with pytest.raises(SimulationError, match="starved"):
            eng.run(plan)
        assert eng.batched_groups == 0


# ---- compile segmentation -------------------------------------------------


def test_compile_groups_structural_runs():
    plan = steady_plan(6)
    plan.add(Phase("dyn", [Flow("f", 8, 1.0 * GB, {"ddr": 1.0}, float(GiB))]))
    segments = plan.compile()
    kinds = [s[0] for s in segments]
    assert kinds == ["group", "ref"]
    group = segments[0][1]
    assert (group.start, group.count) == (0, 6)
    assert group.bytes_matrix.shape == (6, 2)
    assert segments[1][1:] == (6, 7)


def test_compile_splits_on_structure_change():
    plan = steady_plan(3)
    plan.add(
        Phase(
            "other",
            [Flow("f", 99, 1.0 * GB, {"ddr": 1.0}, float(GiB))],
            static_rates=True,
        )
    )
    plan.add(
        Phase(
            "other2",
            [Flow("f", 99, 1.0 * GB, {"ddr": 1.0}, float(2 * GiB))],
            static_rates=True,
        )
    )
    kinds = [s[0] for s in plan.compile()]
    assert kinds == ["group", "group"]


def test_singleton_static_phases_stay_on_reference():
    plan = Plan("singleton")
    plan.add(
        Phase(
            "only",
            [Flow("f", 8, 1.0 * GB, {"ddr": 1.0}, float(GiB))],
            static_rates=True,
        )
    )
    assert [s[0] for s in plan.compile()] == ["ref"]


def test_compile_cache_invalidated_by_add():
    plan = steady_plan(4)
    first = plan.compile()
    assert plan.compile() is first  # cached
    plan.add(
        Phase(
            "s4",
            [
                Flow("in", 8, 0.6 * GB, {"nvm": 1.0}, float(4 * GiB)),
                Flow("comp", 224, 1.0 * GB, {"ddr": 1.0}, float(12 * GiB)),
            ],
            static_rates=True,
        )
    )
    second = plan.compile()
    assert second is not first
    assert second[0][1].count == 5


def test_inner_chunk_variation_only_in_bytes():
    """Ragged final chunks (odd data size) must not break the group:
    structure excludes bytes, so the run stays one group."""
    node = KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))
    pipe = ThreeLevelPipeline(
        node,
        StreamKernel(passes=2),
        ThreeLevelConfig(
            data_bytes=int(20 * GiB) + 128,
            inner_chunk_bytes=3 * GiB,
        ),
    )
    plan = pipe.build_plan("single")
    groups = [s for s in plan.compile() if s[0] == "group"]
    assert len(groups) == 1
    # steady state: all but the pipeline fill/drain steps
    assert groups[0][1].count >= len(plan.phases) - 4


def test_repeated_runs_reuse_compiled_plan():
    plan = steady_plan()
    eng = Engine(RESOURCES, record_events=False)
    first = eng.run(plan)
    compiled = plan._compiled
    second = eng.run(plan)
    assert plan._compiled is compiled
    assert_identical(first, second)


def test_nvm_and_mixed_dynamic_static_interleaving():
    plan = Plan("mix")
    for i in range(3):
        plan.add(
            Phase(
                f"dyn{i}",
                [
                    Flow("a", 8, 1.0 * GB, {"ddr": 1.0}, float(2 * GiB)),
                    Flow("b", 8, 2.0 * GB, {"mcdram": 1.0}, float(GiB)),
                ],
            )
        )
        plan.add(
            Phase(
                f"st{i}.0",
                [Flow("c", 16, 0.5 * GB, {"nvm": 1.0, "ddr": 1.0}, float(MiB))],
                static_rates=True,
            )
        )
        plan.add(
            Phase(
                f"st{i}.1",
                [Flow("c", 16, 0.5 * GB, {"nvm": 1.0, "ddr": 1.0}, float(3 * MiB))],
                static_rates=True,
            )
        )
    fast, fast_res, _, ref_res = run_both(plan)
    assert_identical(fast_res, ref_res)
    assert fast.batched_groups == 3
