"""Strategy-layer contract tests.

Every PARALLEL_MAP strategy must produce the exact sequential result,
recover from a crashed worker where it promises to (work stealing and
rDLB reissue unreported work; nothing is given up), and reject plan
shapes it cannot schedule.
"""

import dataclasses
import math
from statistics import NormalDist

import numpy as np
import pytest

from repro.apps import REGISTRY
from repro.compiler.plan import MovementSpec
from repro.config import ClusterSpec, ProcessorSpec, RunConfig
from repro.errors import ConfigError, SimulationError
from repro.faults import FaultPlan, SlaveCrash
from repro.obs import Recorder
from repro.sim import ConstantLoad
from repro.strategies import STRATEGIES, run_strategy
from repro.strategies.robustness import (
    cell_perturbation,
    oracle_makespan,
    perturbation_loads,
)
from repro.strategies.stealing import REPORT_PERIOD
from repro.scale.workload import IrregularBag, synthetic_bag

SEED = 7
SLAVES = 4


def _plan(app="adaptive", n=32):
    return REGISTRY[app](n=n, n_slaves_hint=SLAVES)


def _truth(plan, seed=SEED):
    kernels = plan.kernels
    gs = kernels.make_global(np.random.default_rng(seed))
    return kernels.sequential(gs)


def _close(a, b):
    assert set(a) == set(b)
    return all(np.allclose(a[k], b[k]) for k in a)


class TestNumericsMatchSequential:
    @pytest.mark.parametrize("strategy", list(STRATEGIES))
    def test_adaptive_multi_rep(self, strategy):
        """reps=3 with data-dependent costs: every plane runs all reps of
        a unit, and per-unit rep collapsing must be exact for
        PARALLEL_MAP."""
        plan = _plan("adaptive")
        cfg = RunConfig(cluster=ClusterSpec(n_slaves=SLAVES))
        out = run_strategy(strategy, plan, cfg, seed=SEED)
        assert _close(out.result, _truth(plan))

    @pytest.mark.parametrize(
        "strategy", ["rate", "hier", "diffusion", "stealing", "rdlb"]
    )
    def test_heavy_tailed_particle(self, strategy):
        plan = _plan("particle")
        cfg = RunConfig(cluster=ClusterSpec(n_slaves=SLAVES))
        out = run_strategy(strategy, plan, cfg, seed=SEED)
        assert _close(out.result, _truth(plan))


class TestCrashTermination:
    def test_stealing_terminates_with_crashed_victim(self):
        """Crash the initial owner of a shard mid-run: nobody judges it
        dead, but the coordinator reissues every unit nobody reported,
        so the run recovers all 32 units and the sequential result."""
        plan = _plan("adaptive")
        cfg = RunConfig(cluster=ClusterSpec(n_slaves=SLAVES))
        base = run_strategy("stealing", plan, cfg, seed=SEED)
        faults = FaultPlan(
            name="victim-crash",
            crashes=(SlaveCrash(pid=0, at=0.3 * base.elapsed),),
        )
        out = run_strategy("stealing", plan, cfg, seed=SEED, faults=faults)
        assert out.dead_pids == (0,)
        assert out.raw.completed_units == 32
        assert out.raw.reissues >= 1
        assert _close(out.result, _truth(plan))

    def test_rdlb_reassigns_dead_workers_chunks(self):
        plan = _plan("adaptive")
        cfg = RunConfig(cluster=ClusterSpec(n_slaves=SLAVES))
        base = run_strategy("rdlb", plan, cfg, seed=SEED)
        faults = FaultPlan(
            name="holder-crash",
            crashes=(SlaveCrash(pid=1, at=0.25 * base.elapsed),),
        )
        out = run_strategy("rdlb", plan, cfg, seed=SEED, faults=faults)
        assert out.dead_pids == (1,)
        assert out.raw.completed_units == 32
        assert _close(out.result, _truth(plan))

    @pytest.mark.parametrize("strategy", ["fsc", "gss", "factoring", "trapezoid"])
    def test_classic_policies_reject_crash_plans(self, strategy):
        """The classics never reissue a chunk (dup_max=1), so a crashed
        holder's chunk could never finish: refused up front."""
        plan = _plan("matmul")
        cfg = RunConfig(cluster=ClusterSpec(n_slaves=SLAVES))
        faults = FaultPlan(
            name="holder-crash", crashes=(SlaveCrash(pid=1, at=0.01),)
        )
        with pytest.raises(ConfigError, match="never reissues"):
            run_strategy(strategy, plan, cfg, seed=SEED, faults=faults)

    @pytest.mark.parametrize("strategy", ["rate", "hier"])
    def test_tree_rejects_worker_crash(self, strategy):
        """The sub-master tree cannot recover a crashed leaf's units, so
        such a fault plan is refused up front instead of running until
        max_virtual_time."""
        plan = _plan("matmul")
        cfg = RunConfig(
            cluster=ClusterSpec(n_slaves=SLAVES), max_virtual_time=20.0
        )
        faults = FaultPlan(
            name="leaf-crash", crashes=(SlaveCrash(pid=1, at=0.01),)
        )
        with pytest.raises(ConfigError, match=r"pid\(s\) \[1\]"):
            run_strategy(strategy, plan, cfg, seed=SEED, faults=faults)


class TestLongChunks:
    """A chunk that takes seconds is work in progress, not work lost:
    with no failure detector, nobody is declared dead for computing."""

    @pytest.mark.parametrize("loaded", [False, True])
    @pytest.mark.parametrize(
        "strategy", ["rdlb", "fsc", "gss", "factoring", "trapezoid"]
    )
    def test_paper_speed_matmul_completes(self, strategy, loaded):
        # The paper's Section 6 point: 0.5 s per row at 1e6 ops/s, so
        # even fsc's 8-row chunks take 4 s.
        plan = REGISTRY["matmul"](n=500, n_slaves_hint=SLAVES)
        cfg = RunConfig(
            cluster=ClusterSpec(n_slaves=SLAVES), execute_numerics=False
        )
        loads = {0: ConstantLoad(k=1)} if loaded else None
        out = run_strategy(strategy, plan, cfg, loads, seed=SEED)
        assert out.raw.completed_units == 500
        if strategy != "rdlb":
            assert out.raw.reassigns == 0
        assert out.speedup <= SLAVES

    def test_all_workers_crashed_raises_deadlock(self):
        """Once every holder of a chunk is dead nobody can finish it:
        the master is left waiting for requests that never come."""
        plan = REGISTRY["matmul"](n=64, n_slaves_hint=SLAVES)
        cfg = RunConfig(
            cluster=ClusterSpec(n_slaves=SLAVES), execute_numerics=False
        )
        base = run_strategy("rdlb", plan, cfg, seed=SEED)
        crash_at = 0.3 * base.elapsed
        faults = FaultPlan(
            name="all-crash",
            crashes=tuple(
                SlaveCrash(pid=p, at=crash_at) for p in range(SLAVES)
            ),
        )
        with pytest.raises(SimulationError, match="rb.request"):
            run_strategy("rdlb", plan, cfg, seed=SEED, faults=faults)

    def test_stealing_all_workers_crashed_raises_deadlock(self):
        """Work stealing reissues as long as one worker lives; with
        every worker dead the coordinator waits on reports forever."""
        plan = REGISTRY["matmul"](n=64, n_slaves_hint=SLAVES)
        cfg = RunConfig(
            cluster=ClusterSpec(n_slaves=SLAVES), execute_numerics=False
        )
        base = run_strategy("stealing", plan, cfg, seed=SEED)
        faults = FaultPlan(
            name="all-crash",
            crashes=tuple(
                SlaveCrash(pid=p, at=0.3 * base.elapsed) for p in range(SLAVES)
            ),
        )
        with pytest.raises(SimulationError, match="st.report"):
            run_strategy("stealing", plan, cfg, seed=SEED, faults=faults)


def _e2e_lognormal_bag(n_units: int, mean_ops: float) -> IrregularBag:
    """The end-to-end benchmark's lognormal bag: unit costs at the
    stratified quantiles of a lognormal (sigma 1.4), scaled to mean
    ``mean_ops`` and shuffled; its largest unit runs 5.8 s at 1e6 ops/s."""
    normal = NormalDist()
    draws = [
        math.exp(1.4 * normal.inv_cdf((i + 0.5) / n_units)) for i in range(n_units)
    ]
    costs = np.maximum(np.asarray(draws) * (mean_ops * n_units / sum(draws)), 1.0)
    np.random.default_rng(n_units).shuffle(costs)
    return IrregularBag(
        name="lognormal",
        costs=tuple(float(c) for c in costs),
        movement=MovementSpec(restricted=False, unit_bytes=1024),
    )


class TestStealingLongUnits:
    """A long unit is work in progress: its worker keeps serving thieves
    while it computes, and nobody is declared dead for computing."""

    def test_heavy_tailed_bag_completes_every_unit(self):
        bag = _e2e_lognormal_bag(512, 2.0e5)
        cfg = RunConfig(
            cluster=ClusterSpec(n_slaves=32, processor=ProcessorSpec(speed=1.0e6)),
            execute_numerics=False,
        )
        out = run_strategy("stealing", bag, cfg)
        assert out.raw.completed_units == 512
        assert out.dead_pids == ()

    def test_victim_serves_steal_mid_unit(self):
        # Worker 0's first unit runs 10 s, twenty report periods; worker
        # 1 drains its four tiny units at once and steals from worker 0.
        costs = (1.0e7,) + (1.0e6,) * 3 + (1.0e4,) * 4
        bag = IrregularBag(
            name="long-head",
            costs=costs,
            movement=MovementSpec(restricted=False, unit_bytes=1024),
        )
        cfg = RunConfig(
            cluster=ClusterSpec(n_slaves=2, processor=ProcessorSpec(speed=1.0e6)),
            execute_numerics=False,
        )
        recorder = Recorder()
        out = run_strategy("stealing", bag, cfg, seed=SEED, recorder=recorder)
        hits = recorder.log.filter(category="steal", name="hit")
        assert hits and hits[0].pid == 1 and hits[0].meta["victim"] == 0
        assert hits[0].t < 2 * REPORT_PERIOD
        assert out.raw.completed_units == 8


class TestPlanShapeGuards:
    @pytest.mark.parametrize("strategy", list(STRATEGIES))
    def test_dynamic_reps_rejected(self, strategy):
        bag = dataclasses.replace(
            synthetic_bag(16, 1e4), dynamic_reps=True
        )
        cfg = RunConfig(
            cluster=ClusterSpec(n_slaves=SLAVES), execute_numerics=False
        )
        with pytest.raises(ConfigError):
            run_strategy(strategy, bag, cfg, seed=SEED)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError):
            run_strategy("nope", _plan(), RunConfig())


class TestRobustnessHarness:
    def test_perturbation_loads_validation(self):
        with pytest.raises(ConfigError):
            perturbation_loads("nonsense", 4)

    def test_spike_regime_only_hits_every_fourth_worker(self):
        loads = perturbation_loads("spike", 8)
        assert set(loads) == {0, 4}

    def test_oracle_bounds_every_strategy(self):
        """No strategy can beat the oracle's perfect-knowledge makespan."""
        cell = cell_perturbation("lognormal", "spike")
        oracle = cell["oracle_makespan"]
        assert oracle > 0
        assert set(cell["makespans"]) == {"rate", "stealing", "rdlb"}
        for strategy, makespan in cell["makespans"].items():
            assert makespan >= 0.99 * oracle, strategy
        assert cell["winner"] in cell["makespans"]

    def test_oracle_matches_closed_form_on_flat_loads(self):
        # No competing load: makespan is total_ops / (P * speed).
        assert oracle_makespan(4e6, 1e6, {}, 4) == pytest.approx(1.0)
