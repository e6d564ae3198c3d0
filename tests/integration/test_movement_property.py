"""Property-based movement correctness.

Hypothesis generates arbitrary competing-load schedules across slaves;
whatever movement the balancer performs — set-aside, catch-up,
refreshed boundaries, front caching — the distributed results must stay
(bit-)identical to the sequential references, and every unit must be
owned exactly once at gather time (the master raises otherwise).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps import build_lu, build_matmul, build_sor
from repro.config import BalancerConfig, ClusterSpec, ProcessorSpec, RunConfig
from repro.runtime import run_application
from repro.sim import StepLoad

# A load schedule: per-slave piecewise-constant competing-task counts.
load_schedules = st.dictionaries(
    keys=st.integers(0, 3),
    values=st.lists(
        st.tuples(st.floats(0.0, 8.0), st.integers(0, 3)),
        min_size=1,
        max_size=4,
    ),
    max_size=3,
)


def _mk_loads(raw):
    loads = {}
    for pid, steps in raw.items():
        times = sorted({round(t, 2) for t, _ in steps})
        cleaned = [(t, k) for t, (_, k) in zip(times, sorted(steps))]
        if cleaned:
            loads[pid] = StepLoad(cleaned)
    return loads


def _run(plan, loads, seed, aggressive, speed=3e4):
    balancer = BalancerConfig(
        improvement_threshold=0.02 if aggressive else 0.10,
        profitability_enabled=not aggressive,
    )
    cfg = RunConfig(
        cluster=ClusterSpec(n_slaves=4, processor=ProcessorSpec(speed=speed)),
        balancer=balancer,
    )
    res = run_application(plan, cfg, loads=loads, seed=seed)
    g = plan.kernels.make_global(np.random.default_rng(seed))
    return res, plan.kernels.sequential(g)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=load_schedules, seed=st.integers(0, 100), aggressive=st.booleans())
def test_sor_exact_under_arbitrary_loads(raw, seed, aggressive):
    plan = build_sor(n=40, maxiter=5)
    res, ref = _run(plan, _mk_loads(raw), seed, aggressive)
    np.testing.assert_array_equal(res.result, ref)
    assert res.log.merged_units == plan.unit_count


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=load_schedules, seed=st.integers(0, 100), aggressive=st.booleans())
def test_lu_exact_under_arbitrary_loads(raw, seed, aggressive):
    plan = build_lu(n=40)
    res, ref = _run(plan, _mk_loads(raw), seed, aggressive)
    np.testing.assert_array_equal(res.result, ref)
    assert res.log.merged_units == plan.unit_count


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=load_schedules, seed=st.integers(0, 100), aggressive=st.booleans())
def test_matmul_close_under_arbitrary_loads(raw, seed, aggressive):
    plan = build_matmul(n=40, reps=2)
    res, ref = _run(plan, _mk_loads(raw), seed, aggressive)
    np.testing.assert_allclose(res.result, ref, atol=1e-9)
    assert res.log.merged_units == plan.unit_count


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 1000))
def test_sor_aggressive_balancer_forces_movement(seed):
    """With a hair-trigger balancer and a heavy one-sided load, movement
    must actually occur and the result must stay exact — this pins the
    set-aside/catch-up machinery, not just the no-movement path.

    The slow processor speed stretches the run over many balancing
    periods so movement fits within the paper's frequency rules.
    """
    plan = build_sor(n=48, maxiter=10)
    loads = {seed % 4: StepLoad([(0.0, 3)])}
    res, ref = _run(plan, loads, seed, aggressive=True, speed=1e4)
    np.testing.assert_array_equal(res.result, ref)
    assert res.log.moves_applied >= 1, "expected movement under 3x load"
