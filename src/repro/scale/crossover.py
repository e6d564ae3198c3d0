"""Scaling-crossover study: where does the central master lose?

One *cell* races the three control planes over the same synthetic
bag-of-units workload at one processor count ``P`` under one competing
load regime:

- **centralized** — the flat tree (``run_hierarchical(fanout=None)``):
  every leaf reports straight to one root, the paper's single-master
  shape re-expressed in the scale protocol so message costs are
  apples-to-apples;
- **hierarchical** — sub-master trees at each fanout in ``FANOUTS``;
- **diffusion** — the decentralised neighbour-exchange baseline.

Load regimes (deterministic under a fixed seed):

- ``constant`` — every fourth leaf carries a steady competing load;
- ``oscillating`` — the same leaves, but the load comes and goes with
  staggered phases (Figure 9 style, compressed period);
- ``trace`` — a seeded random-walk :class:`~repro.sim.StepLoad` per
  loaded leaf, the stand-in for replaying a recorded machine-room trace.

The workload weak-scales (``UNITS_PER_LEAF`` fixed, total units
proportional to ``P``), so a perfectly balanced run has a
``P``-independent makespan and any growth with ``P`` is control-plane
overhead.  :func:`crossover_analysis` reduces a list of cell results to
the measured crossover point per regime: the smallest ``P`` at which the
best hierarchical fanout beats the centralized makespan.  The table
bench ``benchmarks/bench_scaling_crossover.py`` runs the whole grid and
commits its makespans, message counts and analysis.
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
    "cell_scaling",
    "crossover_analysis",
    "regime_loads",
]

ANALYSIS_SCHEMA = "repro-crossover/1"

#: Fraction of leaves that carry competing load, as ``pid % LOAD_STRIDE == 0``.
LOAD_STRIDE = 4

REGIMES = ("constant", "oscillating", "trace")

#: Sub-master fanouts each cell races against the flat tree.
FANOUTS = (4, 8, 16)
#: Weak scaling: every leaf's share of the bag, and each unit's cost.
UNITS_PER_LEAF = 16
OPS_PER_UNIT = 2.0e5
#: Seed of the trace regime's random walks and of every run.
SEED = 0


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
    P: int, regime: str = "constant", topology: str | None = None
) -> dict[str, Any]:
    """One crossover cell: all control planes at one (P, regime) point.

    Returns the per-mode simulated makespans and message counts, which
    :func:`crossover_analysis` reduces to the crossover point.
    """
    bag = synthetic_bag(P * UNITS_PER_LEAF, OPS_PER_UNIT, name=f"bag-p{P}-{regime}")
    loads = regime_loads(regime, P, seed=SEED)

    makespans: dict[str, float] = {}
    messages: dict[str, int] = {}
    for mode, fanout in [("centralized", None)] + [
        (f"hier{fanout}", fanout) for fanout in FANOUTS
    ]:
        res = run_hierarchical(
            bag, _run_cfg(P), dict(loads), fanout=fanout, seed=SEED,
            topology=topology,
        )
        makespans[mode] = res.elapsed
        messages[mode] = res.message_count
    diff = run_diffusion(bag, _run_cfg(P), dict(loads), seed=SEED, topology=topology)
    makespans["diffusion"] = diff.elapsed
    messages["diffusion"] = diff.message_count
    return {
        "P": P,
        "regime": regime,
        "topology": topology or "crossbar",
        "units": bag.n_units,
        "makespans": makespans,
        "messages": messages,
        "winner": min(makespans, key=lambda mode: makespans[mode]),
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
        if cell["topology"] != "crossbar":
            continue
        spans = cell["makespans"]
        hier = {m: v for m, v in spans.items() if m.startswith("hier")}
        best_fanout = min(hier, key=lambda mode: hier[mode])
        by_regime.setdefault(cell["regime"], []).append(
            {
                "P": cell["P"],
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
