"""Section 4.1 — data-dependent WHILE repetition (convergent SOR)."""

import numpy as np
from _util import once, save_series

from repro.apps.sor import build_sor, sor_sequential_convergent
from repro.config import ClusterSpec, ProcessorSpec, RunConfig
from repro.experiments.common import ExperimentSeries
from repro.runtime import run_application
from repro.sim import ConstantLoad


def _run():
    n, maxiter, tol, seed = 24, 110, 0.55, 1
    series = ExperimentSeries(
        name=f"WHILE repetition: convergent SOR (n={n}, tol={tol}, cap={maxiter})",
        headers=("config", "sweeps_seq", "exact_match", "t_elapsed", "moves"),
        expected=(
            "the master evaluates the WHILE condition from reduced slave "
            "residuals; the distributed run stops at the sequential sweep "
            "count with a bit-identical grid, with and without movement"
        ),
    )
    plan = build_sor(n=n, maxiter=maxiter, tol=tol)
    g = plan.kernels.make_global(np.random.default_rng(seed))
    ref, sweeps = sor_sequential_convergent(g["G"], maxiter, tol)

    for label, loads, speed in (
        ("dedicated", None, 1.0e6),
        ("loaded slave 0", {0: ConstantLoad(k=2)}, 6.0e3),
    ):
        cfg = RunConfig(
            cluster=ClusterSpec(n_slaves=4, processor=ProcessorSpec(speed=speed))
        )
        res = run_application(plan, cfg, loads=loads, seed=seed)
        exact = bool(np.array_equal(res.result, ref))
        series.add(label, sweeps, exact, res.elapsed, res.log.moves_applied)
    return series, sweeps, maxiter


def test_while_condition_evaluated_by_master(benchmark):
    series, sweeps, cap = once(benchmark, _run)
    save_series("while_convergence", series)

    assert sweeps < cap, "the WHILE must genuinely exit early"
    for row in series.rows:
        assert row[2] is True, f"grid mismatch in {row[0]}"
    # Movement occurred in the loaded configuration and did not perturb
    # the residual accounting.
    assert series.rows[1][4] >= 1
