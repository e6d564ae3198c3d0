"""Self-scheduling baselines (FSC/GSS/factoring/trapezoid) run through
the strategy registry's central-queue runtime."""

import numpy as np
import pytest

from repro.apps import build_lu, build_matmul
from repro.config import ClusterSpec, ProcessorSpec, RunConfig
from repro.errors import ConfigError
from repro.sim import ConstantLoad
from repro.strategies import run_strategy


class TestRuns:
    def _cfg(self, numerics=False, n_slaves=3, speed=2e5):
        return RunConfig(
            cluster=ClusterSpec(
                n_slaves=n_slaves, processor=ProcessorSpec(speed=speed)
            ),
            execute_numerics=numerics,
        )

    @pytest.mark.parametrize(
        "run",
        [
            lambda plan, cfg: run_strategy("fsc", plan, cfg, seed=2),
            lambda plan, cfg: run_strategy("gss", plan, cfg, seed=2),
            lambda plan, cfg: run_strategy("factoring", plan, cfg, seed=2),
            lambda plan, cfg: run_strategy("trapezoid", plan, cfg, seed=2),
        ],
    )
    def test_numerics_correct(self, run):
        # 5000 ops per row at 1e3 ops/s: every chunk takes seconds, and
        # with no failure detector its holder is never declared dead nor
        # its chunk reissued.
        plan = build_matmul(n=50)
        out = run(plan, self._cfg(numerics=True, speed=1e3))
        assert out.raw.completed_units == 50 and out.raw.reassigns == 0
        g = plan.kernels.make_global(np.random.default_rng(2))
        np.testing.assert_allclose(out.result, g["A"] @ g["B"], atol=1e-9)

    def test_all_chunks_served(self):
        plan = build_matmul(n=64)
        out = run_strategy("fsc", plan, self._cfg(), seed=1)
        assert out.raw.chunks_served == 8

    def test_load_balances_naturally(self):
        plan = build_matmul(n=120)
        cfg = self._cfg()
        loaded = {0: ConstantLoad(k=3)}
        out = run_strategy("factoring", plan, cfg, loads=loaded)
        # Demand-driven chunking absorbs the slow node: time well under
        # the static worst case (slave 0 at 1/4 speed with 1/3 of work).
        static_worst = plan.total_ops() / 3 * 4 / 2e5
        assert out.elapsed < static_worst

    def test_metrics_fields(self):
        plan = build_matmul(n=30)
        out = run_strategy("gss", plan, self._cfg())
        assert out.strategy == "gss" and out.raw.chunking == "gss"
        assert out.speedup > 0
        assert 0 < out.raw.efficiency <= 1.1
        assert out.message_count > 0

    def test_non_parallel_map_rejected(self):
        with pytest.raises(ConfigError):
            run_strategy("gss", build_lu(n=20), self._cfg())
