"""Perturbation-robustness study: strategy x workload x regime cells.

One *cell* races DLB strategies over the same bag-of-units workload at
one processor count under one perturbation regime, and scores every
strategy by **degradation versus an oracle makespan** — the fluid lower
bound a clairvoyant scheduler achieves when it knows every competing
load ahead of time and splits work continuously:

    degradation = makespan / oracle - 1

Workloads (:mod:`repro.scale.workload`):

- ``uniform``   — every unit costs the same (the paper's assumption);
- ``lognormal`` — mild heavy tail (particle / adaptive-refinement);
- ``pareto``    — severe heavy tail (cost variance diverges).

Perturbation regimes:

- ``flat``  — dedicated machines, no competing load;
- ``spike`` — every ``LOAD_STRIDE``-th worker is hit by a hard
  staggered burst of competing tasks (4x slowdown while it lasts);
- ``trace`` — a recorded real-machine load-average trace
  (:class:`repro.sim.load.LoadTrace`, committed under
  ``repro/sim/traces/``) replayed deterministically, time-scaled to the
  simulation horizon and desynchronized across the loaded workers.

The oracle deliberately ignores unit granularity, messaging, and
scheduling quanta, so *every* strategy degrades; what the study exposes
is the *ordering* — where the paper's rate-filtered redistribution
(``rate``) still wins and where the robust strategies (``stealing``,
``rdlb``) overtake it.  :func:`robustness_analysis` reduces the cells to
that crossover table; the table bench
``benchmarks/bench_perturbation_robustness.py`` runs every workload x
regime cell and commits the result.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, Sequence

from ..config import ClusterSpec, ProcessorSpec, RunConfig
from ..errors import ConfigError
from ..sim import LoadGenerator, StepLoad
from ..sim.load import LoadTrace
from ..scale.workload import irregular_bag, synthetic_bag
from .registry import run_strategy

__all__ = [
    "ANALYSIS_SCHEMA",
    "CELL_STRATEGIES",
    "PERTURBATION_REGIMES",
    "TRACE_PATH",
    "WORKLOADS",
    "cell_perturbation",
    "oracle_makespan",
    "perturbation_loads",
    "robustness_analysis",
]

ANALYSIS_SCHEMA = "repro-robustness/1"

PERTURBATION_REGIMES = ("flat", "spike", "trace")
WORKLOADS = ("uniform", "lognormal", "pareto")
#: The strategies each cell races: the paper's plane and the robust two.
CELL_STRATEGIES = ("rate", "stealing", "rdlb")
#: Every cell's machine and bag: P workers at SPEED ops/s, each with
#: UNITS_PER_WORKER units of MEAN_OPS mean cost, drawn with SEED.
P = 16
SPEED = 1.0e6
UNITS_PER_WORKER = 16
MEAN_OPS = 2.0e5
SEED = 0

#: Every LOAD_STRIDE-th worker carries competing load (matches the
#: scaling-crossover convention).
LOAD_STRIDE = 4

#: The recorded host load-average trace shipped with the package.
TRACE_PATH = (
    Path(__file__).resolve().parent.parent / "sim" / "traces" / "host-loadavg.json"
)

#: Simulated horizon the recorded trace is stretched over.
TRACE_HORIZON_S = 10.0


def _trace_replay(trace: LoadTrace, idx: int) -> StepLoad:
    """Deterministic replay of ``trace`` for the ``idx``-th loaded worker.

    The recorded horizon is stretched to ``TRACE_HORIZON_S`` simulated
    seconds; successive loaded workers get slightly different stretches
    (+20% per index class) so the perturbation does not hit the whole
    machine in lock-step.  A trailing zero-load step keeps the
    perturbation from persisting past the recorded window.
    """
    horizon = trace.horizon
    base = TRACE_HORIZON_S / horizon if horizon > 0 else 1.0
    scale = base * (1.0 + 0.2 * (idx % 3))
    steps = [(t * scale, k) for t, k in trace.samples]
    steps.append((steps[-1][0] + 1e-3, 0))
    return StepLoad(steps)


def perturbation_loads(
    regime: str,
    n_workers: int,
    seed: int = 0,
    trace_path: str | Path | None = None,
) -> dict[int, LoadGenerator]:
    """Competing-load map for one perturbation regime.

    Deterministic: ``flat`` and ``spike`` are seed-independent, and the
    ``trace`` regime replays the committed recorded trace (or
    ``trace_path``) rather than sampling anything.
    """
    if regime not in PERTURBATION_REGIMES:
        raise ConfigError(
            f"unknown perturbation regime {regime!r}; "
            f"choices: {', '.join(PERTURBATION_REGIMES)}"
        )
    loads: dict[int, LoadGenerator] = {}
    if regime == "flat":
        return loads
    trace: LoadTrace | None = None
    if regime == "trace":
        trace = LoadTrace.load(trace_path or TRACE_PATH)
    for idx, pid in enumerate(range(0, n_workers, LOAD_STRIDE)):
        if regime == "spike":
            # A hard burst (3 competing tasks = 4x slowdown) that
            # arrives at staggered times and then vanishes.
            on = 0.5 + 0.75 * (idx % 4)
            loads[pid] = StepLoad([(0.0, 0), (on, 3), (on + 2.0, 0)])
        else:
            assert trace is not None
            loads[pid] = _trace_replay(trace, idx)
    return loads


def _dedicated_integral(gen: LoadGenerator, T: float) -> float:
    """``∫0^T dt / (k(t) + 1)`` — the fraction of CPU the app gets."""
    t = 0.0
    acc = 0.0
    while t < T:
        k = gen.k_at(t)
        nxt = min(gen.next_change(t), T)
        if nxt <= t:
            nxt = T
        acc += (nxt - t) / (k + 1)
        t = nxt
    return acc


def oracle_makespan(
    total_ops: float,
    speed: float,
    loads: Mapping[int, LoadGenerator],
    n_workers: int,
) -> float:
    """Fluid lower bound on the makespan under known competing loads.

    Solves ``sum_p speed * ∫0^T dt/(k_p(t)+1) = total_ops`` for ``T`` by
    bisection: a clairvoyant scheduler that can split work continuously
    and move it for free keeps every processor busy until the common
    finish time ``T``.  Real strategies pay granularity, messaging and
    estimation error on top, so ``makespan / oracle - 1 >= 0`` up to
    scheduling-quantum rounding.
    """
    if total_ops <= 0 or speed <= 0 or n_workers < 1:
        raise ConfigError("oracle needs positive work, speed and workers")

    def capacity(T: float) -> float:
        cap = 0.0
        for pid in range(n_workers):
            gen = loads.get(pid)
            frac = T if gen is None else _dedicated_integral(gen, T)
            cap += speed * frac
        return cap

    lo = total_ops / (speed * n_workers)  # all-dedicated bound
    hi = lo
    for _ in range(60):
        if capacity(hi) >= total_ops:
            break
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if capacity(mid) < total_ops:
            lo = mid
        else:
            hi = mid
    return hi


def _build_bag(workload: str):
    n_units = P * UNITS_PER_WORKER
    if workload == "uniform":
        return synthetic_bag(n_units, MEAN_OPS, name=f"uniform-{n_units}")
    if workload == "lognormal":
        return irregular_bag(
            n_units, MEAN_OPS, tail="lognormal", sigma=1.4, seed=SEED,
            name=f"lognormal-{n_units}",
        )
    if workload == "pareto":
        return irregular_bag(
            n_units, MEAN_OPS, tail="pareto", alpha=1.5, seed=SEED,
            name=f"pareto-{n_units}",
        )
    raise ConfigError(
        f"unknown workload {workload!r}; choices: {', '.join(WORKLOADS)}"
    )


def cell_perturbation(
    workload: str = "uniform", regime: str = "flat"
) -> dict[str, Any]:
    """One robustness cell: every strategy in ``CELL_STRATEGIES`` at one point.

    Returns the simulated makespans, message counts, oracle bound and
    per-strategy degradation for :func:`robustness_analysis`.
    """
    bag = _build_bag(workload)
    loads = perturbation_loads(regime, P, seed=SEED)
    cfg = RunConfig(
        cluster=ClusterSpec(n_slaves=P, processor=ProcessorSpec(speed=SPEED)),
        execute_numerics=False,
    )
    oracle = oracle_makespan(bag.total_ops(), SPEED, loads, P)
    makespans: dict[str, float] = {}
    messages: dict[str, int] = {}
    degradation: dict[str, float] = {}
    for strategy in CELL_STRATEGIES:
        out = run_strategy(strategy, bag, cfg, dict(loads), seed=SEED)
        makespans[strategy] = out.elapsed
        messages[strategy] = out.message_count
        degradation[strategy] = out.elapsed / oracle - 1.0
    return {
        "P": P,
        "workload": workload,
        "regime": regime,
        "units": bag.n_units,
        "oracle_makespan": oracle,
        "makespans": makespans,
        "degradation": degradation,
        "messages": messages,
        "winner": min(makespans, key=lambda s: makespans[s]),
    }


def robustness_analysis(
    cells: Sequence[Mapping[str, Any]], margin: float = 0.02
) -> dict[str, Any]:
    """Reduce robustness cells to the strategy-crossover table.

    For every robust strategy, lists the (workload, regime)
    points where it beats the paper's ``rate`` plane by at least
    ``margin`` and where it loses by at least ``margin`` — the
    acceptance evidence that the robust planes are *complements*, not
    replacements, of rate-filtered redistribution.
    """
    points: list[dict[str, Any]] = []
    for cell in cells:
        spans = cell["makespans"]
        points.append(
            {
                "workload": cell["workload"],
                "regime": cell["regime"],
                "P": cell["P"],
                "oracle": cell["oracle_makespan"],
                "makespans": dict(spans),
                "degradation": dict(cell["degradation"]),
                "winner": cell["winner"],
            }
        )
    out: dict[str, Any] = {
        "schema": ANALYSIS_SCHEMA,
        "margin": margin,
        "points": points,
        "strategies": {},
    }
    for strategy in sorted(set(CELL_STRATEGIES) - {"rate"}):
        wins: list[str] = []
        losses: list[str] = []
        for point in points:
            spans = point["makespans"]
            label = f"{point['workload']}/{point['regime']}"
            if spans[strategy] < spans["rate"] * (1.0 - margin):
                wins.append(label)
            elif spans[strategy] > spans["rate"] * (1.0 + margin):
                losses.append(label)
        out["strategies"][strategy] = {
            "beats_rate": wins,
            "loses_to_rate": losses,
            "complementary": bool(wins) and bool(losses),
        }
    return out
