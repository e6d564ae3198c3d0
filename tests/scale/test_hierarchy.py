"""Hierarchical control-plane tests: tree shapes, correctness, recovery."""

import numpy as np
import pytest

from repro.apps import build_matmul, build_sor
from repro.config import ClusterSpec, ProcessorSpec, RunConfig
from repro.errors import ConfigError
from repro.faults import FaultPlan, SlaveCrash
from repro.obs import Recorder
from repro.scale import (
    build_tree,
    hier_can_recover,
    run_hierarchical,
    synthetic_bag,
)
from repro.sim import ConstantLoad, StepLoad


def cfg(n_slaves, numerics=False, speed=2e5):
    return RunConfig(
        cluster=ClusterSpec(
            n_slaves=n_slaves, processor=ProcessorSpec(speed=speed)
        ),
        execute_numerics=numerics,
    )


class TestBuildTree:
    def test_flat_when_fanout_none_or_large(self):
        for fanout in (None, 8, 100):
            tree = build_tree(8, fanout)
            assert tree.internal == ()
            assert tree.root == 8
            assert all(tree.parent[leaf] == 8 for leaf in range(8))

    def test_two_level_tree(self):
        tree = build_tree(16, 4)
        assert tree.internal == (16, 17, 18, 19)
        assert tree.root == 20
        assert tree.levels == 2
        assert tree.children[16] == (0, 1, 2, 3)
        assert tree.children[20] == (16, 17, 18, 19)

    def test_three_level_tree(self):
        tree = build_tree(8, 2)
        assert tree.levels == 3
        assert tree.root == 14
        assert tree.n_internal == 6

    def test_parent_child_consistency(self):
        tree = build_tree(23, 4)  # uneven grouping
        for node, kids in tree.children.items():
            for kid in kids:
                assert tree.parent[kid] == node
        # Every pid except the root has a parent.
        assert set(tree.parent) == set(range(tree.root))

    def test_shard_leaves_partition_the_leaf_set(self):
        tree = build_tree(16, 4)
        shards = [tree.shard_leaves(n) for n in tree.internal]
        flat = [leaf for shard in shards for leaf in shard]
        assert sorted(flat) == list(range(16))

    def test_first_leaf_descends_leftmost(self):
        tree = build_tree(16, 4)
        assert tree.first_leaf(16) == 0
        assert tree.first_leaf(19) == 12
        assert tree.first_leaf(tree.root) == 0


class TestRecoverability:
    def test_empty_plan_recoverable(self):
        assert hier_can_recover(build_tree(16, 4), FaultPlan())

    def test_submaster_crash_recoverable(self):
        plan = FaultPlan(crashes=(SlaveCrash(pid=16, at=1.0),))
        assert hier_can_recover(build_tree(16, 4), plan)

    def test_leaf_crash_not_recoverable_here(self):
        plan = FaultPlan(crashes=(SlaveCrash(pid=3, at=1.0),))
        assert not hier_can_recover(build_tree(16, 4), plan)

    def test_root_crash_not_recoverable(self):
        plan = FaultPlan(crashes=(SlaveCrash(pid=20, at=1.0),))
        assert not hier_can_recover(build_tree(16, 4), plan)


class TestRunHierarchical:
    def test_non_parallel_map_rejected_up_front(self):
        with pytest.raises(ConfigError, match="PARALLEL_MAP"):
            run_hierarchical(build_sor(n=20, maxiter=2), cfg(4))

    def test_load_on_submaster_pid_rejected(self):
        bag = synthetic_bag(32, 1e4)
        with pytest.raises(ConfigError, match="non-leaf"):
            run_hierarchical(
                bag, cfg(8), {8: ConstantLoad(k=1)}, fanout=2
            )

    def test_numerics_match_kernel_product(self):
        plan = build_matmul(n=48)
        res = run_hierarchical(
            plan,
            cfg(8, numerics=True),
            {0: ConstantLoad(k=2)},
            fanout=2,
            seed=3,
        )
        g = plan.kernels.make_global(np.random.default_rng(3))
        np.testing.assert_allclose(res.result, g["A"] @ g["B"], atol=1e-9)
        assert res.levels == 3

    def test_deterministic_under_fixed_seed(self):
        bag = synthetic_bag(256, 5e4)
        runs = [
            run_hierarchical(
                bag, cfg(16), {0: ConstantLoad(k=2)}, fanout=4, seed=1
            )
            for _ in range(2)
        ]
        assert runs[0].elapsed == runs[1].elapsed
        assert runs[0].message_count == runs[1].message_count
        assert runs[0].takes == runs[1].takes
        assert runs[0].units_moved == runs[1].units_moved

    def test_balancer_moves_work_off_loaded_leaf(self):
        bag = synthetic_bag(256, 5e4)
        res = run_hierarchical(
            bag, cfg(16), {0: ConstantLoad(k=3)}, fanout=4
        )
        assert res.moves >= 1
        assert res.units_moved >= 1
        # Beats the static worst case (loaded leaf keeps its 1/16 share
        # at 1/4 speed).
        static_worst = bag.total_ops() / 16 * 4 / 2e5
        assert res.elapsed < static_worst

    def test_topology_aware_run_completes(self):
        bag = synthetic_bag(128, 5e4)
        res = run_hierarchical(
            bag,
            cfg(8),
            {0: ConstantLoad(k=2)},
            fanout=4,
            topology="ring",
        )
        assert res.elapsed > 0
        assert res.deaths == 0


class TestEventDrivenWaits:
    def test_idle_leaves_answer_term_at_once(self):
        # Every leaf is idle, blocked in its timed wait, when the root
        # sends TERM.  Each must answer it at once rather than at its
        # next report deadline, so the run ends a few messages after it.
        # Leaf 0's load ends at 2 s, so that early work moves but no CPU
        # is shared at TERM and answering costs only message CPU.
        run_cfg = cfg(16)
        recorder = Recorder()
        res = run_hierarchical(
            synthetic_bag(256, 5e4),
            run_cfg,
            {0: StepLoad([(0.0, 3), (2.0, 0)])},
            fanout=4,
            recorder=recorder,
        )
        assert res.moves >= 1
        terms = [
            ev
            for ev in recorder.log.filter(category="net", name="msg")
            if ev.meta["tag"] == "sc.term"
        ]
        assert len(terms) == 16 + 4
        net = run_cfg.cluster.network
        # The TERM fan-out, one result per leaf and a few wire hops.
        bound = (len(terms) + 16) * (net.send_cpu + net.recv_cpu) + 4 * net.latency
        assert res.elapsed - min(ev.t_start for ev in terms) <= bound


class TestSubMasterCrash:
    def test_crash_recovers_with_identical_numerics(self):
        plan = build_matmul(n=48)
        base = run_hierarchical(
            plan, cfg(8, numerics=True), fanout=2, seed=3
        )
        tree = build_tree(8, 2)
        faults = FaultPlan(
            crashes=(SlaveCrash(pid=tree.internal[0], at=0.4 * base.elapsed),)
        )
        res = run_hierarchical(
            plan, cfg(8, numerics=True), fanout=2, seed=3, faults=faults
        )
        assert res.deaths == 1
        assert res.reparents >= 1
        assert res.dead_pids == (tree.internal[0],)
        np.testing.assert_array_equal(res.result, base.result)

    def test_crash_never_loses_shipped_units(self):
        bag = synthetic_bag(256, 5e4)
        base = run_hierarchical(
            bag, cfg(16), {0: ConstantLoad(k=2)}, fanout=4
        )
        faults = FaultPlan(crashes=(SlaveCrash(pid=16, at=0.4 * base.elapsed),))
        res = run_hierarchical(
            bag, cfg(16), {0: ConstantLoad(k=2)}, fanout=4, faults=faults
        )
        # The run completes (did not hit max_virtual_time) even though a
        # sub-master died mid-redistribution: unit custody is leaf-only.
        assert res.deaths == 1
        assert res.elapsed < base.elapsed + 30.0

    def test_leaf_crash_rejected_by_guard(self):
        tree = build_tree(16, 4)
        faults = FaultPlan(crashes=(SlaveCrash(pid=2, at=1.0),))
        assert not hier_can_recover(tree, faults)
