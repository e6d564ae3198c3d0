"""Scaling-crossover study: where does the central master lose?

One *cell* races the three control planes over the same synthetic
bag-of-units workload at one processor count ``P`` under one competing
load regime:

- **centralized** — the flat tree (``run_hierarchical(fanout=None)``):
  every leaf reports straight to one root, the paper's single-master
  shape re-expressed in the scale protocol so message costs are
  apples-to-apples;
- **hierarchical** — sub-master trees at each requested fanout;
- **diffusion** — the decentralised neighbour-exchange baseline.

Load regimes (deterministic under a fixed seed):

- ``constant`` — every fourth leaf carries a steady competing load;
- ``oscillating`` — the same leaves, but the load comes and goes with
  staggered phases (Figure 9 style, compressed period);
- ``trace`` — a seeded random-walk :class:`~repro.sim.StepLoad` per
  loaded leaf, the stand-in for replaying a recorded machine-room trace.

The workload weak-scales (``units_per_leaf`` fixed, total units
proportional to ``P``), so a perfectly balanced run has a
``P``-independent makespan and any growth with ``P`` is control-plane
overhead.  :func:`crossover_analysis` reduces a list of cell results to
the measured crossover point per regime: the smallest ``P`` at which the
best hierarchical fanout beats the centralized makespan.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..config import ClusterSpec, ProcessorSpec, RunConfig
from ..errors import ConfigError
from ..sim import ConstantLoad, LoadGenerator, OscillatingLoad, StepLoad
from ..baselines.diffusion import run_diffusion
from .hierarchy import run_hierarchical
from .workload import synthetic_bag

__all__ = [
    "ANALYSIS_SCHEMA",
    "REGIMES",
    "SWEEP_SCHEMA",
    "cell_scaling",
    "crossover_analysis",
    "crossover_sweep",
    "regime_loads",
]

ANALYSIS_SCHEMA = "repro-crossover/1"
SWEEP_SCHEMA = "repro-crossover-sweep/1"

#: Fraction of leaves that carry competing load, as ``pid % LOAD_STRIDE == 0``.
LOAD_STRIDE = 4

REGIMES = ("constant", "oscillating", "trace")


def regime_loads(
    regime: str, n_leaves: int, seed: int = 0
) -> dict[int, LoadGenerator]:
    """Competing-load map for one regime (deterministic in ``seed``).

    Every ``LOAD_STRIDE``-th leaf is loaded; the regime controls how the
    load varies over time, not where it sits, so regimes differ only in
    volatility.
    """
    if regime not in REGIMES:
        raise ConfigError(
            f"unknown load regime {regime!r}; choices: {', '.join(REGIMES)}"
        )
    loads: dict[int, LoadGenerator] = {}
    for pid in range(0, n_leaves, LOAD_STRIDE):
        if regime == "constant":
            loads[pid] = ConstantLoad(k=2)
        elif regime == "oscillating":
            # Staggered phases: the hot set drifts around the machine.
            loads[pid] = OscillatingLoad(
                k=2, period=4.0, duration=2.0, start=0.5 * ((pid // LOAD_STRIDE) % 4)
            )
        else:  # trace
            rng = np.random.default_rng([seed, n_leaves, pid])
            k, steps = 0, []
            for i in range(40):
                k = int(np.clip(k + rng.integers(-1, 2), 0, 3))
                steps.append((0.5 * i, k))
            loads[pid] = StepLoad(steps)
    return loads


def _run_cfg(P: int) -> RunConfig:
    # Paper calibration: 1e6 ops/s processors, 0.5 ms per-message CPU
    # overhead (NetworkSpec defaults).  At these rates a flat root
    # saturates near P ~ 1000 reporting leaves, which is the effect the
    # sweep is designed to expose.
    return RunConfig(
        cluster=ClusterSpec(n_slaves=P, processor=ProcessorSpec(speed=1.0e6)),
        execute_numerics=False,
    )


def cell_scaling(
    P: int,
    regime: str = "constant",
    fanouts: Sequence[int] = (4, 8, 16),
    units_per_leaf: int = 16,
    ops_per_unit: float = 2.0e5,
    topology: str | None = None,
    seed: int = 0,
) -> dict[str, Any]:
    """One crossover cell: all control planes at one (P, regime) point.

    ``wall_s`` (gated) covers every mode's run; the per-mode simulated
    makespans land in ``meta`` — they are deterministic, so the harness
    flags drift, and :func:`crossover_analysis` reduces them to the
    crossover point.
    """
    import time

    bag = synthetic_bag(
        P * units_per_leaf, ops_per_unit, name=f"bag-p{P}-{regime}"
    )
    loads = regime_loads(regime, P, seed=seed)

    makespans: dict[str, float] = {}
    messages: dict[str, int] = {}
    t0 = time.perf_counter()
    flat = run_hierarchical(
        bag, _run_cfg(P), dict(loads), fanout=None, seed=seed, topology=topology
    )
    makespans["centralized"] = flat.elapsed
    messages["centralized"] = flat.message_count
    for fanout in fanouts:
        res = run_hierarchical(
            bag, _run_cfg(P), dict(loads), fanout=fanout, seed=seed,
            topology=topology,
        )
        makespans[f"hier{fanout}"] = res.elapsed
        messages[f"hier{fanout}"] = res.message_count
    diff = run_diffusion(bag, _run_cfg(P), dict(loads), seed=seed, topology=topology)
    makespans["diffusion"] = diff.elapsed
    messages["diffusion"] = diff.message_count
    wall = time.perf_counter() - t0

    winner = min(makespans, key=lambda mode: makespans[mode])
    metrics = {"wall_s": wall}
    return {
        "metrics": metrics,
        "meta": {
            "P": P,
            "regime": regime,
            "fanouts": list(fanouts),
            "topology": topology or "crossbar",
            "units": bag.n_units,
            "sim_elapsed": makespans,
            "makespans": makespans,
            "messages": messages,
            "winner": winner,
        },
    }


def crossover_sweep(
    ps: Sequence[int] = (8, 32, 64, 128),
    regimes: Sequence[str] = REGIMES,
    *,
    fanouts: Sequence[int] = (4, 8, 16),
    seed: int = 0,
    state_dir: str | None = None,
    workers: int = 1,
    timeout_s: float | None = None,
    recorder: Any = None,
) -> dict[str, Any]:
    """Run the (P, regime) crossover grid as an orchestrated sweep.

    Each grid point is one :func:`cell_scaling` job submitted to
    :func:`repro.orchestrator.submit_sweep` — with a ``state_dir`` the
    study is resumable after a crash and repeated points are served from
    the content-hash cache.  Returns a schema-tagged document with the
    completed cells, any failed/timeout points (the sweep degrades
    rather than aborts), and the :func:`crossover_analysis` reduction
    over whatever completed.
    """
    from ..orchestrator import JobSpec, submit_sweep

    for regime in regimes:
        if regime not in REGIMES:
            raise ConfigError(
                f"unknown load regime {regime!r}; choices: {', '.join(REGIMES)}"
            )
    specs = [
        JobSpec(
            id=f"P{P}_{regime}",
            fn="repro.scale.crossover:cell_scaling",
            params={
                "P": int(P),
                "regime": regime,
                "fanouts": list(fanouts),
                "seed": seed,
            },
            timeout_s=timeout_s,
            max_retries=1,
            backoff_s=0.1,
        )
        for P in ps
        for regime in regimes
    ]
    sweep = submit_sweep(
        specs,
        state_dir=state_dir,
        workers=workers,
        meta={"study": "crossover", "ps": [int(P) for P in ps]},
        recorder=recorder,
    )
    cells = [record.result for record in sweep.records if record.ok]
    return {
        "schema": SWEEP_SCHEMA,
        "sweep_id": sweep.sweep_id,
        "interrupted": sweep.interrupted,
        "cells": cells,
        "failed": [r.summary() for r in sweep.failed_records()],
        "stats": sweep.stats,
        "analysis": crossover_analysis(cells),
    }


def crossover_analysis(
    cells: Sequence[Mapping[str, Any]], margin: float = 0.02
) -> dict[str, Any]:
    """Reduce scaling cells to the measured crossover point per regime.

    Only crossbar cells (no explicit topology) enter the P-sweep — the
    topology cells probe interconnect sensitivity at a fixed P and would
    muddy the sweep.  Returns a schema-tagged document fragment with one
    sorted point list per regime plus ``crossover_P``: the smallest P
    from which the best hierarchical makespan beats the centralized one
    by at least ``margin`` *at every larger swept P too* (``null`` when
    the master never durably loses).  The sustained-win rule keeps a
    lucky balancing cadence at one small P from reading as a crossover.
    """
    by_regime: dict[str, list[dict[str, Any]]] = {}
    for cell in cells:
        meta = cell.get("meta", {})
        if meta.get("topology", "crossbar") != "crossbar":
            continue
        spans = meta.get("makespans")
        if not spans:
            continue
        hier = {m: v for m, v in spans.items() if m.startswith("hier")}
        if not hier or "centralized" not in spans:
            continue
        best_fanout = min(hier, key=lambda mode: hier[mode])
        by_regime.setdefault(meta["regime"], []).append(
            {
                "P": meta["P"],
                "centralized": spans["centralized"],
                "best_hier": hier[best_fanout],
                "best_fanout": int(best_fanout.removeprefix("hier")),
                "diffusion": spans.get("diffusion"),
                "hier_wins": (
                    hier[best_fanout] < spans["centralized"] * (1.0 - margin)
                ),
            }
        )
    out: dict[str, Any] = {
        "schema": ANALYSIS_SCHEMA,
        "margin": margin,
        "regimes": {},
    }
    for regime, points in sorted(by_regime.items()):
        points.sort(key=lambda p: p["P"])
        crossover = None
        for point in reversed(points):
            if not point["hier_wins"]:
                break
            crossover = point["P"]
        out["regimes"][regime] = {"points": points, "crossover_P": crossover}
    return out
