"""Diffusion baseline tests."""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps import build_lu, build_matmul, build_sor
from repro.baselines import diffusion
from repro.baselines.diffusion import run_diffusion
from repro.config import ClusterSpec, ProcessorSpec, RunConfig
from repro.errors import ConfigError, SimulationError
from repro.sim import ConstantLoad, Send


def cfg(numerics=False, n_slaves=3, speed=2e5):
    return RunConfig(
        cluster=ClusterSpec(n_slaves=n_slaves, processor=ProcessorSpec(speed=speed)),
        execute_numerics=numerics,
    )


class TestDiffusion:
    def test_numerics_correct_dedicated(self):
        plan = build_matmul(n=40)
        res = run_diffusion(plan, cfg(numerics=True), seed=3)
        g = plan.kernels.make_global(np.random.default_rng(3))
        np.testing.assert_allclose(res.result, g["A"] @ g["B"], atol=1e-9)

    def test_numerics_correct_under_load(self):
        plan = build_matmul(n=60)
        res = run_diffusion(
            plan, cfg(numerics=True), loads={0: ConstantLoad(k=2)}, seed=4
        )
        g = plan.kernels.make_global(np.random.default_rng(4))
        np.testing.assert_allclose(res.result, g["A"] @ g["B"], atol=1e-9)
        assert res.moves >= 1, "diffusion should shift work off the loaded node"

    def test_work_flows_toward_idle_neighbours(self):
        plan = build_matmul(n=120)
        res = run_diffusion(plan, cfg(n_slaves=4), loads={0: ConstantLoad(k=3)})
        # Elapsed beats the static worst case (loaded node keeps 1/4 of
        # the work at 1/4 speed).
        static_worst = plan.total_ops() / 4 * 4 / 2e5
        assert res.elapsed < static_worst * 0.9

    def test_single_slave_degenerate(self):
        plan = build_matmul(n=20)
        res = run_diffusion(plan, cfg(n_slaves=1, numerics=True), seed=1)
        g = plan.kernels.make_global(np.random.default_rng(1))
        np.testing.assert_allclose(res.result, g["A"] @ g["B"], atol=1e-9)
        assert res.moves == 0

    def test_non_parallel_map_rejected_up_front(self):
        with pytest.raises(ConfigError, match="PARALLEL_MAP"):
            run_diffusion(build_sor(n=20, maxiter=2), cfg())

    def test_rejection_names_offending_shape(self):
        with pytest.raises(ConfigError, match="REDUCTION_FRONT"):
            run_diffusion(build_lu(n=12), cfg())


class TestTopologyAwareDiffusion:
    def test_ring_numerics_correct_under_load(self):
        plan = build_matmul(n=60)
        res = run_diffusion(
            plan,
            cfg(numerics=True, n_slaves=4),
            loads={0: ConstantLoad(k=2)},
            seed=4,
            topology="ring",
        )
        g = plan.kernels.make_global(np.random.default_rng(4))
        np.testing.assert_allclose(res.result, g["A"] @ g["B"], atol=1e-9)
        assert res.topology == "ring"

    def test_mesh_numerics_correct(self):
        plan = build_matmul(n=60)
        res = run_diffusion(
            plan,
            cfg(numerics=True, n_slaves=6),
            loads={1: ConstantLoad(k=2)},
            seed=2,
            topology="mesh2d",
        )
        g = plan.kernels.make_global(np.random.default_rng(2))
        np.testing.assert_allclose(res.result, g["A"] @ g["B"], atol=1e-9)

    def test_two_cluster_wan_slows_cross_traffic(self):
        # That a cross-cluster message pays the WAN latency is pinned by
        # the fabric (tests/scale/test_topology.py); at the default WAN
        # latency the two-cluster graph can beat the chain outright, so
        # the run here only has to complete.
        plan = build_matmul(n=80)
        wan = run_diffusion(
            plan,
            cfg(n_slaves=4),
            loads={0: ConstantLoad(k=3)},
            seed=1,
            topology="two_cluster",
        )
        assert wan.topology == "two_cluster"
        assert wan.elapsed > 0

    def test_default_stays_chain(self):
        plan = build_matmul(n=40)
        res = run_diffusion(plan, cfg())
        assert res.topology == "chain"


class TestRunGuards:
    """``run_diffusion`` fails loudly like the other PARALLEL_MAP planes."""

    def test_run_past_max_virtual_time_raises(self):
        plan = build_matmul(n=40)
        run_cfg = replace(cfg(), max_virtual_time=0.01)
        with pytest.raises(SimulationError, match="max_virtual_time"):
            run_diffusion(plan, run_cfg)

    def test_coordinator_without_results_raises(self, monkeypatch):
        def terminate_only(ctx, n_slaves, total_units, sink):
            # Stops every slave but never gathers their results.
            for pid in range(n_slaves):
                yield Send(pid, diffusion._TERM, None, 16)

        monkeypatch.setattr(diffusion, "_diff_master", terminate_only)
        with pytest.raises(SimulationError, match="never gathered"):
            run_diffusion(build_matmul(n=40), cfg())

    @pytest.mark.parametrize("pid", [-1, 3])
    def test_load_on_non_worker_pid_rejected(self, pid):
        # pid 3 is the coordinator's processor with three slaves.
        with pytest.raises(ConfigError, match="non-worker pid"):
            run_diffusion(
                build_matmul(n=40), cfg(), loads={pid: ConstantLoad(k=1)}
            )
