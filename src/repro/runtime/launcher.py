"""Whole-application launcher: wire a plan onto a simulated cluster.

``run_application`` is the top-level entry point used by examples,
tests, and every benchmark: it builds the cluster, computes the initial
distribution and startup-time strip size, spawns master + slaves, runs
the simulation to completion, and returns a :class:`RunResult` with the
paper's metrics (execution time, speedup, resource-usage efficiency)
plus full diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

import numpy as np

from ..compiler.plan import ExecutionPlan, LoopShape
from ..compiler.stripmine import choose_block_size
from ..config import RunConfig
from ..errors import SimulationError
from ..faults import FaultInjector, FaultPlan
from ..obs import Recorder, RunReport, build_run_report
from ..sim import Cluster, LoadGenerator, Trace
from ..sim.rusage import RusageReport
from .master import MasterLog, master_task
from .partition import BlockPartition, IndexPartition
from .slave import slave_task

__all__ = [
    "RunResult",
    "resolve_run_cfg",
    "run_application",
    "sequential_time",
]

#: Startup strip sizing makes one strip of pipelined work take this long
#: on a dedicated machine (Section 4.4: 150 ms, 1.5x the quantum).
TARGET_BLOCK_TIME = 0.15


@dataclass
class RunResult:
    """Outcome and metrics of one simulated application run."""

    name: str
    n_slaves: int
    elapsed: float
    sequential_time: float
    rusage: RusageReport
    log: MasterLog
    trace: Trace | None
    message_count: int
    bytes_sent: int
    dlb_enabled: bool
    result: Any = None
    recorder: Recorder | None = None
    # Fault-injection outcome (all zero / empty on fault-free runs).
    retransmits: int = 0
    messages_lost: int = 0
    dead_pids: tuple[int, ...] = ()

    @property
    def speedup(self) -> float:
        """Speedup over the sequential program on one dedicated machine."""
        return self.sequential_time / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def efficiency(self) -> float:
        """The paper's resource-usage efficiency:
        ``T_seq / sum_p(T_elapsed - T_competing(p))`` over the slaves."""
        return self.rusage.efficiency(self.sequential_time, list(range(self.n_slaves)))

    def summary(self) -> str:
        return (
            f"{self.name}: P={self.n_slaves} elapsed={self.elapsed:.2f}s "
            f"speedup={self.speedup:.2f} eff={self.efficiency:.3f} "
            f"moves={self.log.moves_applied} ({self.log.units_moved} units) "
            f"msgs={self.message_count}"
        )

    def make_report(self) -> RunReport:
        """Aggregate this run into a :class:`repro.obs.RunReport`.

        Requires the run to have been observed (``trace=True`` /
        ``run_cfg.trace_enabled`` or an explicit recorder).
        """
        if self.recorder is None:
            raise SimulationError(
                "run was not observed: enable tracing or pass a recorder "
                "to run_application() before requesting a RunReport"
            )
        return build_run_report(self, self.recorder)


def sequential_time(plan: ExecutionPlan, run_cfg: RunConfig) -> float:
    """Execution time of the sequential program on one dedicated
    reference machine (no communication, no competing load)."""
    return plan.total_ops() / run_cfg.cluster.processor.speed


def resolve_run_cfg(
    run_cfg: RunConfig, plan: ExecutionPlan, faults: FaultPlan | None
) -> RunConfig:
    """Effective configuration for a run.

    - Fault plans with crashes, stalls, or partitions auto-enable the
      failure-tolerant runtime (``run_cfg.ft``).
    - Crashes on dependence-carrying shapes (``PIPELINE``,
      ``REDUCTION_FRONT``) additionally auto-enable checkpointing
      (``run_cfg.ckpt``), the only recovery mechanism for them.
    - Enabled checkpointing always implies the failure-tolerant runtime
      it rides on (epoch controls travel the recovery channel).

    A fault-free run with checkpointing off is returned unchanged: the
    runtime then waits with blocking receives and runs no recovery.
    """
    have_faults = faults is not None and not faults.empty
    needs_recovery = have_faults and bool(
        faults.crashes or faults.stalls or faults.partitions
    )
    if (
        have_faults
        and faults.crashes
        and plan.shape is not LoopShape.PARALLEL_MAP
        and not run_cfg.ckpt.enabled
    ):
        run_cfg = replace(
            run_cfg, ckpt=replace(run_cfg.ckpt, enabled=True)
        )
    if (needs_recovery or run_cfg.ckpt.enabled) and not run_cfg.ft:
        run_cfg = replace(run_cfg, ft=True)
    return run_cfg


def _initial_partition(plan: ExecutionPlan, run_cfg: RunConfig):
    restricted = plan.movement.restricted
    if run_cfg.balancer.restricted is not None:
        restricted = run_cfg.balancer.restricted or restricted
    n = run_cfg.cluster.n_slaves
    lo, hi = plan.unit_space()
    if restricted:
        return BlockPartition.even(hi - lo, n, lo=lo)
    return IndexPartition.even(hi - lo, n, lo=lo)


def _startup_block_size(plan: ExecutionPlan, run_cfg: RunConfig) -> int | None:
    """Startup-time strip sizing (Section 4.4): one strip ~= 1.5 quanta."""
    if plan.shape is not LoopShape.PIPELINE:
        return None
    if plan.strip.block_size is not None:
        return plan.strip.block_size
    n = run_cfg.cluster.n_slaves
    owned_avg = max(1.0, plan.unit_count / n)
    mid_unit = (plan.unit_lo + plan.n_units) // 2
    per_sweep_unit_ops = plan.unit_cost(0, mid_unit)
    per_row_ops = owned_avg * per_sweep_unit_ops / plan.strip.total
    return choose_block_size(
        unit_cost_ops=max(per_row_ops, 1e-9),
        speed_ops_per_sec=run_cfg.cluster.processor.speed,
        target_block_time=TARGET_BLOCK_TIME,
        total_iterations=plan.strip.total,
    )


def run_application(
    plan: ExecutionPlan,
    run_cfg: RunConfig | None = None,
    loads: Mapping[int, LoadGenerator] | None = None,
    seed: int = 0,
    recorder: Recorder | None = None,
    faults: FaultPlan | None = None,
) -> RunResult:
    """Run ``plan`` on a simulated cluster and return metrics.

    ``loads`` maps slave processor ids to competing-load generators
    (dedicated processors otherwise).  ``recorder`` supplies an
    observability sink explicitly; with ``run_cfg.trace_enabled`` one is
    created automatically.  Observed runs carry a derived legacy
    :class:`~repro.sim.Trace` and support :meth:`RunResult.make_report`.

    ``faults`` injects a seeded :class:`~repro.faults.FaultPlan`
    (fractional fault times must already be resolved against a horizon).
    Message-only plans rely on the transport layer alone; the effective
    configuration is computed by :func:`resolve_run_cfg` (crash/stall/
    partition plans enable ``run_cfg.ft``; crashes on dependence-carrying
    shapes also enable ``run_cfg.ckpt``).  With ``faults`` None (or an
    empty plan) and checkpointing off, no injector is built and every
    runtime wait is a blocking receive.
    """
    run_cfg = resolve_run_cfg(run_cfg or RunConfig(), plan, faults)
    if recorder is None and run_cfg.trace_enabled:
        recorder = Recorder()
    injector: FaultInjector | None = None
    if faults is not None and not faults.empty:
        injector = FaultInjector(faults, master_pid=run_cfg.cluster.master_pid)
    if (
        plan.shape is LoopShape.PIPELINE
        and plan.unit_count < run_cfg.cluster.n_slaves
    ):
        raise SimulationError(
            f"pipeline plan has {plan.unit_count} units for "
            f"{run_cfg.cluster.n_slaves} slaves; every slave needs at "
            "least one column to anchor its halo exchange"
        )
    cluster = Cluster(run_cfg.cluster, dict(loads or {}), recorder, injector)
    rng = np.random.default_rng(seed)

    global_state = (
        plan.kernels.make_global(rng) if run_cfg.execute_numerics else None
    )
    partition = _initial_partition(plan, run_cfg)
    block_size = _startup_block_size(plan, run_cfg)

    log = MasterLog()
    sink: dict[str, Any] = {}
    for pid in range(run_cfg.cluster.n_slaves):
        cluster.spawn(pid, slave_task, plan, run_cfg)
    cluster.spawn(
        run_cfg.cluster.master_pid,
        master_task,
        plan,
        run_cfg,
        log,
        recorder,
        global_state,
        partition,
        block_size,
        sink,
    )
    cluster.run(until=run_cfg.max_virtual_time)
    if "log" not in sink:
        # The run did not finish inside the virtual-time budget; rerun to
        # the real end only if the queue drained (deadlock check).
        if cluster.engine.pending():
            raise SimulationError(
                f"run exceeded max_virtual_time={run_cfg.max_virtual_time}"
            )
        cluster.run()  # surfaces DeadlockError diagnostics
        raise SimulationError("master never produced a result")

    elapsed = max(
        cluster.task_finish_time(pid)
        for pid in range(run_cfg.cluster.n_processors)
        if pid not in cluster.dead_pids
    )
    seq = sequential_time(plan, run_cfg)
    trace = (
        Trace.from_events(recorder.log.events())
        if recorder is not None and recorder.enabled
        else None
    )
    return RunResult(
        name=plan.name,
        n_slaves=run_cfg.cluster.n_slaves,
        elapsed=elapsed,
        sequential_time=seq,
        rusage=cluster.rusage(elapsed),
        log=log,
        trace=trace,
        message_count=cluster.message_count,
        bytes_sent=cluster.bytes_sent,
        dlb_enabled=run_cfg.dlb_enabled,
        result=log.result,
        recorder=recorder,
        retransmits=cluster.retransmits,
        messages_lost=cluster.messages_lost,
        dead_pids=tuple(sorted(cluster.dead_pids)),
    )
