"""Picklable chaos-matrix cells for orchestrated fan-out.

``repro chaos`` submits one job per application to
:func:`repro.orchestrator.submit_sweep`; each job runs that app's
fault-free baseline once and then every fault-plan cell against it,
returning plain JSON-safe cell dicts.  Keeping baseline + cells inside
one job preserves the original semantics (one baseline run per app) and
makes the job deterministic in its parameters — which is what lets the
orchestrator's content-hash cache serve repeated chaos cells for free.
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np

from ..config import CheckpointConfig, ClusterSpec, RunConfig

__all__ = ["chaos_app_cells", "chaos_hier_cells", "chaos_strategy_cells"]


def _results_identical(a: object, b: object) -> bool:
    """Deep bit-identity between two run results (dicts/arrays/None)."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            _results_identical(a[k], b[k]) for k in a
        )
    if a is None or b is None:
        return a is b
    return bool(np.array_equal(np.asarray(a), np.asarray(b)))


def _build_plan(app: str, n: int, n_slaves: int) -> Any:
    from ..apps import REGISTRY

    return REGISTRY[app](n=n, n_slaves_hint=n_slaves)


def chaos_app_cells(
    app: str,
    plans: list[str],
    n: int,
    slaves: int,
    seed: int,
    fault_seed: int,
    ckpt: bool = False,
    ckpt_interval: float | None = None,
    ckpt_placement: str | None = None,
    reports_dir: str | None = None,
) -> list[dict[str, Any]]:
    """One app's row of the central chaos matrix (baseline + each plan).

    Message-only plans must leave results bit-identical to the fault-free
    baseline; crash plans must recover (or be legitimately lost when the
    effective configuration cannot recover).  Cell dicts match the
    historical ``repro chaos`` output schema exactly.
    """
    from ..errors import SlaveLostError
    from ..faults import load_plan
    from ..obs import Recorder
    from ..runtime import run_application
    from ..runtime.launcher import resolve_run_cfg
    from ..runtime.master import can_recover

    defaults = CheckpointConfig()
    plan = _build_plan(app, n, slaves)
    cfg = RunConfig(
        cluster=ClusterSpec(n_slaves=slaves),
        ckpt=CheckpointConfig(
            enabled=ckpt,
            interval=ckpt_interval if ckpt_interval is not None else defaults.interval,
            placement=ckpt_placement or defaults.placement,
        ),
    )
    base = run_application(plan, cfg, seed=seed)
    base_result = base.result
    if reports_dir is not None:
        os.makedirs(reports_dir, exist_ok=True)
    cells: list[dict[str, Any]] = []
    for pname in plans:
        fault_plan = load_plan(pname, seed=fault_seed)
        if fault_plan.needs_horizon:
            fault_plan = fault_plan.resolved(base.elapsed)
        recorder = Recorder() if reports_dir is not None else None
        cell: dict[str, Any] = {"app": app, "plan": pname}
        has_crash = bool(fault_plan.crashes)
        recoverable = can_recover(plan, resolve_run_cfg(cfg, plan, fault_plan)[0])
        try:
            res = run_application(
                plan, cfg, seed=seed, faults=fault_plan, recorder=recorder
            )
        except SlaveLostError as exc:
            if has_crash and not recoverable:
                cell["outcome"] = "lost-expected"
                cell["detail"] = str(exc)
            else:
                cell["outcome"] = "FAILED"
                cell["detail"] = f"unexpected SlaveLostError: {exc}"
        else:
            identical = _results_identical(res.result, base_result)
            cell["bit_identical"] = identical
            cell["retransmits"] = res.retransmits
            cell["messages_lost"] = res.messages_lost
            cell["dead_pids"] = list(res.dead_pids)
            cell["elapsed"] = res.elapsed
            cell["rollbacks"] = res.log.rollbacks
            cell["units_restored"] = res.log.units_restored
            cell["ckpt_epochs_committed"] = res.log.ckpt_epochs_committed
            cell["ckpt_snapshots"] = res.log.ckpt_snapshots
            if identical:
                cell["outcome"] = "recovered" if res.dead_pids else "identical"
            else:
                cell["outcome"] = "FAILED"
                cell["detail"] = "results diverged from fault-free baseline"
            if recorder is not None and reports_dir is not None:
                res.make_report().save(
                    os.path.join(reports_dir, f"{app}-{pname}.json")
                )
        cells.append(cell)
    return cells


def chaos_hier_cells(
    app: str,
    n: int,
    slaves: int,
    fanout: int,
    seed: int,
) -> dict[str, Any]:
    """One app's row of the hierarchical sub-master-crash matrix.

    Returns ``{"app", "skipped", "cells"}``; ``skipped`` names the loop
    shape when the app has no hierarchical plane (PIPELINE /
    REDUCTION_FRONT), in which case ``cells`` is empty.
    """
    from ..compiler.plan import LoopShape
    from ..faults import FaultPlan, SlaveCrash
    from ..scale import build_tree, run_hierarchical

    plan = _build_plan(app, n, slaves)
    if plan.shape is not LoopShape.PARALLEL_MAP:
        return {"app": app, "skipped": plan.shape.name, "cells": []}
    cfg = RunConfig(cluster=ClusterSpec(n_slaves=slaves))
    tree = build_tree(slaves, fanout)
    base = run_hierarchical(plan, cfg, fanout=fanout, seed=seed)
    # Crash inside the work phase (the busiest leaf's CPU time), not at a
    # share of the makespan: a shard that has drained has already sent
    # its last summary, and a crash after that needs no recovery.
    work = max(base.rusage.usage_for(leaf).app_cpu for leaf in range(slaves))
    targets = [
        ("first-submaster", tree.internal[0], 0.4),
        ("last-submaster", tree.internal[-1], 0.6),
    ]
    cells: list[dict[str, Any]] = []
    for label, pid, frac in targets:
        faults = FaultPlan(
            name=f"hier-{label}",
            crashes=(SlaveCrash(pid=pid, at=frac * work),),
        )
        cell: dict[str, Any] = {
            "app": app,
            "plan": f"hier-{label}",
            "fanout": fanout,
            "crash_pid": pid,
        }
        res = run_hierarchical(plan, cfg, fanout=fanout, seed=seed, faults=faults)
        identical = _results_identical(res.result, base.result)
        cell["bit_identical"] = identical
        cell["deaths"] = res.deaths
        cell["reparents"] = res.reparents
        cell["dead_pids"] = list(res.dead_pids)
        cell["elapsed"] = res.elapsed
        if identical and res.deaths >= 1 and res.reparents >= 1:
            cell["outcome"] = "recovered"
        else:
            cell["outcome"] = "FAILED"
            cell["detail"] = (
                "results diverged from fault-free baseline"
                if not identical
                else "crash did not exercise the failure detector"
            )
        cells.append(cell)
    return {"app": app, "skipped": None, "cells": cells}


def _results_close(a: object, b: object) -> bool:
    """Numerical closeness between two run results (dicts/arrays/None).

    Strategy planes merge per-chunk partial results whose summation
    order depends on the (fault-dependent) unit-to-worker assignment, so
    bit identity is the wrong bar; closeness is.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_results_close(a[k], b[k]) for k in a)
    if a is None or b is None:
        return a is b
    return bool(np.allclose(np.asarray(a), np.asarray(b)))


def chaos_strategy_cells(
    app: str,
    strategy: str,
    n: int,
    slaves: int,
    seed: int,
) -> dict[str, Any]:
    """One app's row of the robust-strategy crash matrix.

    Crashes one worker mid-run under ``strategy`` (``stealing`` or
    ``rdlb``) and checks the contract those planes promise: the run
    terminates (never hangs) and recovers fully, with a result
    numerically equal to the fault-free baseline — neither plane judges
    a worker dead; both reissue work nobody has reported done (rDLB's
    master once its queue is dry, the stealing coordinator to a worker
    whose steal round found nothing).  A crash that lands after the run,
    silent divergence or a hang is a failure.

    Returns ``{"app", "strategy", "skipped", "cells"}`` with the same
    shape as :func:`chaos_hier_cells`.
    """
    from ..compiler.plan import LoopShape
    from ..errors import SimulationError
    from ..faults import FaultPlan, SlaveCrash
    from ..strategies import run_strategy

    plan = _build_plan(app, n, slaves)
    if plan.shape is not LoopShape.PARALLEL_MAP:
        return {"app": app, "strategy": strategy, "skipped": plan.shape.name, "cells": []}
    cfg = RunConfig(cluster=ClusterSpec(n_slaves=slaves))
    base = run_strategy(strategy, plan, cfg, seed=seed)
    # Worker pids are 0..slaves-1 in the strategy planes (the master /
    # coordinator sits at pid == slaves and cannot be faulted).
    targets = [
        ("early-crash", 1 % slaves, 0.25),
        ("late-crash", slaves - 1, 0.6),
    ]
    cells: list[dict[str, Any]] = []
    for label, pid, frac in targets:
        faults = FaultPlan(
            name=f"{strategy}-{label}",
            crashes=(SlaveCrash(pid=pid, at=frac * base.elapsed),),
        )
        cell: dict[str, Any] = {
            "app": app,
            "strategy": strategy,
            "plan": f"{strategy}-{label}",
            "crash_pid": pid,
        }
        try:
            res = run_strategy(strategy, plan, cfg, seed=seed, faults=faults)
        except SimulationError as exc:
            cell["outcome"] = "FAILED"
            cell["detail"] = f"simulation did not terminate cleanly: {exc}"
            cells.append(cell)
            continue
        close = _results_close(res.result, base.result)
        cell["dead_pids"] = list(res.dead_pids)
        cell["elapsed"] = res.elapsed
        cell["result_matches_baseline"] = close
        if not res.dead_pids:
            cell["outcome"] = "FAILED"
            cell["detail"] = "crash did not land before the run finished"
        elif close:
            cell["outcome"] = "recovered"
        else:
            cell["outcome"] = "FAILED"
            cell["detail"] = "results diverged from fault-free baseline"
        cells.append(cell)
    return {"app": app, "strategy": strategy, "skipped": None, "cells": cells}
