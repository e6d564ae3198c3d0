"""Checkpoint overhead — fault-free cost of RunConfig.ckpt (robustness PR).

Coordinated checkpointing buys crash recovery for every loop shape, and
the paper's economics only hold if the insurance premium is small: a
fault-free run with checkpointing on (default 2 s epoch interval) must
stay within 10% of the uninstrumented runtime.  This bench measures
that premium for one app per shape — MM (PARALLEL_MAP), SOR (PIPELINE),
LU (REDUCTION_FRONT) — under both snapshot placements, and checks that
epochs actually commit (an interval that never produces a committed
epoch would make the premium meaningless).
"""

from dataclasses import replace

from _util import once, save_series

from repro.apps import build_lu, build_matmul, build_sor
from repro.config import (
    CheckpointConfig,
    ClusterSpec,
    ProcessorSpec,
    RunConfig,
)
from repro.experiments.common import PAPER_QUANTUM, PAPER_SPEED, ExperimentSeries
from repro.runtime import run_application

P = 4
MAX_OVERHEAD = 0.10  # acceptance: <10% simulated time at default interval


def _apps():
    return [
        ("mm", build_matmul(n=256, n_slaves_hint=P)),
        ("sor", build_sor(n=256, n_slaves_hint=P)),
        ("lu", build_lu(n=300, n_slaves_hint=P)),
    ]


def _run():
    base = RunConfig(
        cluster=ClusterSpec(
            n_slaves=P,
            processor=ProcessorSpec(speed=PAPER_SPEED, quantum=PAPER_QUANTUM),
        )
    )
    configs = [
        ("off", base),
        ("master", replace(base, ckpt=CheckpointConfig(enabled=True))),
        (
            "buddy",
            replace(
                base, ckpt=CheckpointConfig(enabled=True, placement="buddy")
            ),
        ),
    ]
    series = ExperimentSeries(
        name="Checkpoint overhead, fault-free (default 2 s interval)",
        headers=(
            "app",
            "placement",
            "t_elapsed",
            "overhead_pct",
            "epochs_committed",
            "snapshots",
        ),
        expected=(
            "checkpointing costs <10% simulated time on every shape; "
            "epochs commit under both placements"
        ),
    )
    for app, plan in _apps():
        baseline = None
        for placement, cfg in configs:
            res = run_application(plan, cfg, seed=0)
            if placement == "off":
                baseline = res.elapsed
                series.add(app, "off", res.elapsed, 0.0, 0, 0)
                continue
            overhead = res.elapsed / baseline - 1.0
            series.add(
                app,
                placement,
                res.elapsed,
                100.0 * overhead,
                res.log.ckpt_epochs_committed,
                res.log.ckpt_snapshots,
            )
    return series


def test_checkpoint_overhead(benchmark):
    series = once(benchmark, _run)
    save_series("checkpoint_overhead", series)

    for app, placement, _t, overhead_pct, committed, snapshots in series.rows:
        if placement == "off":
            continue
        assert overhead_pct / 100.0 < MAX_OVERHEAD, (
            f"{app}/{placement}: checkpoint overhead {overhead_pct:.1f}% "
            f"exceeds the {MAX_OVERHEAD:.0%} budget"
        )
        assert committed >= 1, f"{app}/{placement}: no epoch ever committed"
        assert snapshots >= committed * P, (
            f"{app}/{placement}: {snapshots} snapshots for "
            f"{committed} committed epochs"
        )
