"""Picklable chaos-matrix rows for orchestrated fan-out.

``repro chaos`` submits one job per application to
:func:`repro.orchestrator.submit_sweep`; each job runs that app's
fault-free baseline once and then every cell of its row against it,
returning ``{"app", "skipped", "cells"}`` with plain JSON-safe cell
dicts.  Keeping baseline + cells inside one job preserves the original
semantics (one baseline run per app) and makes the job deterministic in
its parameters — which is what lets the orchestrator's content-hash
cache serve repeated chaos cells for free.
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np

from ..config import CheckpointConfig, ClusterSpec, RunConfig

__all__ = ["chaos_app_cells", "chaos_crash_cells"]


def _results_match(a: object, b: object, exact: bool) -> bool:
    """Deep comparison of two run results (dicts/arrays/None): bit
    identity when ``exact``, numerical closeness otherwise."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            _results_match(a[k], b[k], exact) for k in a
        )
    if a is None or b is None:
        return a is b
    x, y = np.asarray(a), np.asarray(b)
    return bool(np.array_equal(x, y) if exact else np.allclose(x, y))


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
    ckpt_interval: float,
    ckpt_placement: str,
    reports_dir: str | None = None,
) -> dict[str, Any]:
    """One app's row of the central chaos matrix (baseline + each plan).

    Message-only plans must leave results bit-identical to the fault-free
    baseline; crash plans must recover with results still identical
    (checkpointing, at ``ckpt_interval`` / ``ckpt_placement``, is
    switched on for crash plans on dependence-carrying shapes by
    :func:`repro.runtime.launcher.resolve_run_cfg`).  Any
    :class:`~repro.errors.SlaveLostError` fails the cell.
    """
    from ..errors import SlaveLostError
    from ..faults import load_plan
    from ..obs import Recorder
    from ..runtime import run_application

    plan = _build_plan(app, n, slaves)
    cfg = RunConfig(
        cluster=ClusterSpec(n_slaves=slaves),
        ckpt=CheckpointConfig(interval=ckpt_interval, placement=ckpt_placement),
    )
    base = run_application(plan, cfg, seed=seed)
    if reports_dir is not None:
        os.makedirs(reports_dir, exist_ok=True)
    cells: list[dict[str, Any]] = []
    for pname in plans:
        fault_plan = load_plan(pname, seed=fault_seed)
        if fault_plan.needs_horizon:
            fault_plan = fault_plan.resolved(base.elapsed)
        recorder = Recorder() if reports_dir is not None else None
        cell: dict[str, Any] = {"app": app, "plan": pname}
        cells.append(cell)
        try:
            res = run_application(
                plan, cfg, seed=seed, faults=fault_plan, recorder=recorder
            )
        except SlaveLostError as exc:
            cell["outcome"] = "FAILED"
            cell["detail"] = f"unexpected SlaveLostError: {exc}"
            continue
        identical = _results_match(res.result, base.result, exact=True)
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
        if reports_dir is not None:
            res.make_report().save(os.path.join(reports_dir, f"{app}-{pname}.json"))
    return {"app": app, "skipped": None, "cells": cells}


def chaos_crash_cells(
    app: str,
    control: str,
    n: int,
    slaves: int,
    seed: int,
    fanout: int,
) -> dict[str, Any]:
    """One app's row of a crash matrix for a PARALLEL_MAP plane.

    ``control`` is ``hier`` (the sub-master tree, ``fanout`` wide),
    ``stealing`` or ``rdlb``.  After a fault-free baseline, each of two
    targeted crashes must land and leave the result matching the
    baseline:

    - ``hier`` kills the first and the last level-1 sub-master at 40% and
      60% of the work phase.  Leaves keep custody of every unit, so the
      result must be bit-identical, and the crash must exercise the
      failure detector (a death and a re-parenting).
    - ``stealing`` / ``rdlb`` kill an early worker at 25% and the last
      worker at 60% of the baseline's makespan.  Neither plane judges a
      worker dead; both reissue work nobody has reported done, and they
      merge per-chunk partial results in an order that depends on the
      fault, so the result need only be numerically close.

    A run that does not terminate cleanly fails its cell.  ``skipped``
    names the loop shape of a PIPELINE / REDUCTION_FRONT app, which has
    no such plane; its ``cells`` are empty.
    """
    from ..compiler.plan import LoopShape
    from ..errors import SimulationError
    from ..faults import FaultPlan, SlaveCrash

    plan = _build_plan(app, n, slaves)
    if plan.shape is not LoopShape.PARALLEL_MAP:
        return {"app": app, "skipped": plan.shape.name, "cells": []}
    cfg = RunConfig(cluster=ClusterSpec(n_slaves=slaves))
    hier = control == "hier"
    if hier:
        from ..scale import build_tree, run_hierarchical

        def run(faults: FaultPlan | None = None) -> Any:
            return run_hierarchical(plan, cfg, fanout=fanout, seed=seed, faults=faults)

        base = run()
        # Crash inside the work phase (the busiest leaf's CPU time), not
        # at a share of the makespan: a shard that has drained has
        # already sent its last summary, and a crash after that needs no
        # recovery.
        horizon = max(base.rusage.usage_for(leaf).app_cpu for leaf in range(slaves))
        internal = build_tree(slaves, fanout).internal
        targets = [
            ("first-submaster", internal[0], 0.4),
            ("last-submaster", internal[-1], 0.6),
        ]
        plane: dict[str, Any] = {"fanout": fanout}
    else:
        from ..strategies import run_strategy

        def run(faults: FaultPlan | None = None) -> Any:
            return run_strategy(control, plan, cfg, seed=seed, faults=faults)

        base = run()
        horizon = base.elapsed
        # Worker pids are 0..slaves-1 in the strategy planes (the master /
        # coordinator sits at pid == slaves and cannot be faulted).
        targets = [("early-crash", 1 % slaves, 0.25), ("late-crash", slaves - 1, 0.6)]
        plane = {"strategy": control}
    cells: list[dict[str, Any]] = []
    for label, pid, frac in targets:
        name = f"{control}-{label}"
        cell: dict[str, Any] = {"app": app, "plan": name, "crash_pid": pid, **plane}
        cells.append(cell)
        faults = FaultPlan(name=name, crashes=(SlaveCrash(pid=pid, at=frac * horizon),))
        try:
            res = run(faults)
        except SimulationError as exc:
            cell["outcome"] = "FAILED"
            cell["detail"] = f"simulation did not terminate cleanly: {exc}"
            continue
        match = _results_match(res.result, base.result, exact=hier)
        cell["dead_pids"] = list(res.dead_pids)
        cell["elapsed"] = res.elapsed
        if hier:
            cell["bit_identical"] = match
            cell["deaths"] = res.deaths
            cell["reparents"] = res.reparents
            landed = res.deaths >= 1 and res.reparents >= 1
            missed = "crash did not exercise the failure detector"
        else:
            cell["result_matches_baseline"] = match
            landed = bool(res.dead_pids)
            missed = "crash did not land before the run finished"
        if landed and match:
            cell["outcome"] = "recovered"
        else:
            cell["outcome"] = "FAILED"
            cell["detail"] = (
                missed if not landed else "results diverged from fault-free baseline"
            )
    return {"app": app, "skipped": None, "cells": cells}
