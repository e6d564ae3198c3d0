"""The four end-to-end workloads: inputs made from a seed, run lists, checks.

Each workload is a fixed list of :class:`Run` s (one *pass*).  A run
drives the program through a public entry point only (``run_point``,
``run_strategy``, ``run_hierarchical``, ``run_diffusion``) and returns a
normalized :class:`Outcome`.  The seed makes the inputs — the
trace-regime competing loads and the numeric globals — and nothing else;
the planes' own randomness (work-stealing victims) keeps its default seed.

Why these four (see README.md for the full table):

- ``paper_sweep``: the paper's Figures 5-8 runs, numerics off.  Host time
  goes to the master/slave/balancer runtime and the simulator.
- ``numerics_verified``: the same runtime path with real payloads; host
  time goes to the numeric kernels, so a kernel change shows here and a
  runtime-only change barely does.
- ``strategy_irregular``: heavy-tailed bags under perturbation across
  five strategies, plus two crash runs.  The only workload that arms the
  fault injector and the only one that can lose work.
- ``hier_p256``: P=256 hierarchical/diffusion control planes, where
  per-report cost times P dominates and the event core is the hot layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Any, Callable

import numpy as np

import repro.apps as apps
from repro.baselines.diffusion import run_diffusion
from repro.compiler.plan import MovementSpec
from repro.config import ClusterSpec, ProcessorSpec, RunConfig
from repro.experiments.common import PAPER_SPEED, run_point
from repro.faults import FaultPlan, SlaveCrash
from repro.scale.crossover import regime_loads
from repro.scale.hierarchy import run_hierarchical
from repro.scale.workload import IrregularBag, synthetic_bag
from repro.sim import ConstantLoad, StepLoad
from repro.strategies.registry import run_strategy
from repro.strategies.robustness import oracle_makespan, perturbation_loads

__all__ = ["Outcome", "Run", "Workload", "build", "check", "numeric_error"]

#: MM (different reduction grouping) is held to this; SOR/LU must be bit-exact.
MM_ATOL = 1e-9

@dataclass
class Outcome:
    """What one run produced, normalized across entry points."""

    #: control plane that ran it: runtime, stealing, rdlb, hierarchy, diffusion
    plane: str
    elapsed: float
    sequential_time: float
    messages: int
    moves: int
    rusage: Any
    n_workers: int
    result: Any = None
    units: int | None = None
    completed: int | None = None
    lost: int = 0
    deaths: int = 0
    dead_pids: tuple[int, ...] = ()
    #: plane-specific counters the per-layer metrics read
    counters: dict[str, int] = field(default_factory=dict)

    def fingerprint(self) -> tuple:
        """The simulated outcome; must repeat exactly on every pass."""
        return (self.elapsed, self.messages, self.moves, self.lost, self.deaths)


@dataclass
class Run:
    """One entry in a workload's pass."""

    name: str
    execute: Callable[[dict], Outcome]
    #: fresh competing-load map for each call (the traced run wraps them)
    loads: Callable[[], dict]
    #: part of the warm-up done during set-up
    warm: bool = False
    #: counts toward sim_speedup_gmean / makespan_over_oracle_gmean
    dlb: bool = True
    oracle: float | None = None
    #: (app, P, loaded) cell pairing static and DLB runs in paper_sweep
    cell: tuple | None = None
    reference: Any = None
    bit_exact: bool = True
    crash_at: float | None = None
    crash_pid: int | None = None


@dataclass
class Workload:
    runs: list[Run]
    #: plan objects whose kernels the traced run wraps
    plans: list[Any] = field(default_factory=list)


def _from_run_result(res) -> Outcome:
    log = res.log
    return Outcome(
        plane="runtime",
        elapsed=res.elapsed,
        sequential_time=res.sequential_time,
        messages=res.message_count,
        moves=log.moves_applied,
        rusage=res.rusage,
        n_workers=res.n_slaves,
        result=res.result,
        counters={
            "moves_issued": log.moves_issued,
            "moves_applied": log.moves_applied,
            "reports": log.reports_received,
        },
    )


def _from_plane(res, units: int) -> Outcome:
    """Outcome of a run_hierarchical / run_diffusion / strategy raw result.

    ``units`` is the number submitted; only the stealing and rDLB planes
    count completions, so only they can be checked for conservation."""
    counters: dict[str, int] = {}
    if hasattr(res, "steal_hits"):
        plane, moves = "stealing", res.units_stolen
        counters.update(steals=res.steals, steal_hits=res.steal_hits)
    elif hasattr(res, "chunks_served"):
        plane, moves = "rdlb", res.chunks_served
        counters.update(
            chunks=res.chunks_served,
            reassigns=res.reassigns,
            duplicates=res.duplicate_results,
        )
    elif hasattr(res, "reports"):
        plane, moves = "hierarchy", res.moves
        counters["reports"] = res.reports
    else:
        plane, moves = "diffusion", res.moves
    return Outcome(
        plane=plane,
        elapsed=res.elapsed,
        sequential_time=res.sequential_time,
        messages=res.message_count,
        moves=moves,
        rusage=res.rusage,
        n_workers=res.n_slaves if hasattr(res, "n_slaves") else res.n_leaves,
        result=getattr(res, "result", None),
        units=units,
        completed=getattr(res, "completed_units", None),
        lost=getattr(res, "lost_units", 0),
        deaths=getattr(res, "deaths", 0),
        dead_pids=tuple(getattr(res, "dead_pids", ())),
        counters=counters,
    )


def _no_loads() -> dict:
    return {}


def _loaded_slave0() -> dict:
    return {0: ConstantLoad(k=1)}


def _paper_sweep(seed: int) -> Workload:
    """Figures 5-8: MM/SOR/LU at P in {2,4,7}, static and DLB, dedicated
    and with one competing task on slave 0.  Numerics off, so the seed
    changes nothing here."""
    runs: list[Run] = []
    plans = []
    specs = (
        ("mm", apps.build_matmul, {"n": 500}),
        ("sor", apps.build_sor, {"n": 2000, "maxiter": 15}),
        ("lu", apps.build_lu, {"n": 300}),
    )
    for app, builder, params in specs:
        for P in (2, 4, 7):
            plan = builder(**params, n_slaves_hint=P)
            plans.append(plan)
            for loaded in (False, True):
                loads = _loaded_slave0 if loaded else _no_loads
                oracle = oracle_makespan(plan.total_ops(), PAPER_SPEED, loads(), P)
                for dlb in (False, True):
                    runs.append(
                        Run(
                            name=f"{app}-P{P}-{'loaded' if loaded else 'dedicated'}"
                            f"-{'dlb' if dlb else 'static'}",
                            execute=lambda ld, plan=plan, P=P, dlb=dlb: (
                                _from_run_result(
                                    run_point(plan, P, loads=ld, dlb=dlb)
                                )
                            ),
                            loads=loads,
                            warm=dlb and loaded,
                            dlb=dlb,
                            oracle=oracle,
                            cell=(app, P, loaded),
                        )
                    )
    return Workload(runs, plans)


#: Simulated processors 10x slower than the paper's, so these small grids
#: run long enough in simulated time for the balancer to move work.
NUMERICS_SPEED = 1.0e5


def _numerics_verified(seed: int) -> Workload:
    """DLB runs with real payloads, each checked against the sequential
    reference of the same seed (computed once here)."""
    runs: list[Run] = []
    plans = []
    specs = (
        ("sor", apps.build_sor, {"n": 192, "maxiter": 10}, 4, True),
        ("mm", apps.build_matmul, {"n": 300}, 7, False),
        ("lu", apps.build_lu, {"n": 200}, 4, True),
    )
    for app, builder, params, P, bit_exact in specs:
        plan = builder(**params, n_slaves_hint=P)
        plans.append(plan)
        kernels = plan.kernels
        reference = kernels.sequential(kernels.make_global(np.random.default_rng(seed)))
        for loaded in (False, True):
            loads = _loaded_slave0 if loaded else _no_loads
            runs.append(
                Run(
                    name=f"{app}-P{P}-{'loaded' if loaded else 'dedicated'}",
                    execute=lambda ld, plan=plan, P=P: _from_run_result(
                        run_point(
                            plan,
                            P,
                            loads=ld,
                            dlb=True,
                            execute_numerics=True,
                            speed=NUMERICS_SPEED,
                            seed=seed,
                        )
                    ),
                    loads=loads,
                    warm=loaded,
                    oracle=oracle_makespan(
                        plan.total_ops(), NUMERICS_SPEED, loads(), P
                    ),
                    reference=reference,
                    bit_exact=bit_exact,
                )
            )
    return Workload(runs, plans)


#: The trace regime loads every ``LOAD_STRIDE``-th worker for
#: ``TRACE_STEPS`` steps of ``TRACE_STEP_S`` seconds.  At every step the
#: loaded workers hold 0-3 competing tasks in equal shares, rotating by
#: ``TRACE_ROTATE`` places per step; the seed decides where each worker
#: starts.  Every seed thus offers the same total load at every moment,
#: to different workers: the inputs vary, the work they cause by a few
#: percent only.
LOAD_STRIDE = 4
TRACE_STEPS = 40
TRACE_STEP_S = 0.5
TRACE_ROTATE = 5


def trace_loads(n_workers: int, seed: int) -> dict:
    """Seeded load trace on every ``LOAD_STRIDE``-th worker."""
    pids = range(0, n_workers, LOAD_STRIDE)
    m = len(pids)
    levels = [4 * k // m for k in range(m)]
    starts = np.random.default_rng(seed).permutation(m)
    loads = {}
    for pid, start in zip(pids, starts):
        steps = [
            (TRACE_STEP_S * t, levels[(start + TRACE_ROTATE * t) % m])
            for t in range(TRACE_STEPS)
        ]
        steps.append((TRACE_STEP_S * TRACE_STEPS, 0))
        loads[pid] = StepLoad(steps)
    return loads


def tail_bag(tail: str, n_units: int, mean_ops: float) -> IrregularBag:
    """Heavy-tailed bag: unit costs at the ``n_units`` stratified quantiles
    of a lognormal (sigma 1.4) or Pareto (alpha 1.5) distribution, scaled
    to mean ``mean_ops`` and scattered over the index space.

    The bag is the same for every benchmark seed.  Which strategy copes
    with a heavy tail depends on where its largest units sit; a seed that
    moved them would move the workload's aggregate results by ~5%, more
    than the bounds allow.  The seed varies the trace-regime loads.
    """
    quantiles = [(i + 0.5) / n_units for i in range(n_units)]
    if tail == "lognormal":
        normal = NormalDist()
        draws = [math.exp(1.4 * normal.inv_cdf(q)) for q in quantiles]
    else:
        draws = [(1.0 - q) ** (-1.0 / 1.5) for q in quantiles]
    scale = mean_ops * n_units / sum(draws)
    costs = np.maximum(np.asarray(draws) * scale, 1.0)
    np.random.default_rng(n_units).shuffle(costs)
    return IrregularBag(
        name=tail,
        costs=tuple(float(c) for c in costs),
        movement=MovementSpec(restricted=False, unit_bytes=1024),
    )


STRATEGY_P = 32
STRATEGIES = ("rate", "stealing", "rdlb", "gss", "factoring")


def _strategy_loads(regime: str, seed: int) -> Callable[[], dict]:
    if regime == "trace":
        return lambda: trace_loads(STRATEGY_P, seed)
    return lambda: perturbation_loads(regime, STRATEGY_P)


def _strategy_irregular(seed: int) -> Workload:
    """Bags x regimes x strategies at P=32, plus a worker crash at 0.25 of
    the fault-free makespan on lognormal/flat under stealing and rdlb."""
    n_units = STRATEGY_P * 16
    bags = {
        "uniform": synthetic_bag(n_units, 2.0e5, name="uniform"),
        "lognormal": tail_bag("lognormal", n_units, 2.0e5),
        "pareto": tail_bag("pareto", n_units, 2.0e5),
    }
    cfg = RunConfig(
        cluster=ClusterSpec(n_slaves=STRATEGY_P, processor=ProcessorSpec(speed=1.0e6)),
        execute_numerics=False,
    )

    def execute(strategy, bag, faults=None):
        return lambda ld: _from_plane(
            run_strategy(strategy, bag, cfg, ld, faults=faults).raw,
            bag.n_units,
        )

    runs: list[Run] = []
    for bag_name, bag in bags.items():
        for regime in ("flat", "spike", "trace"):
            loads = _strategy_loads(regime, seed)
            oracle = oracle_makespan(bag.total_ops(), 1.0e6, loads(), STRATEGY_P)
            for strategy in STRATEGIES:
                runs.append(
                    Run(
                        name=f"{bag_name}-{regime}-{strategy}",
                        execute=execute(strategy, bag),
                        loads=loads,
                        warm=bag_name == "uniform" and regime == "flat",
                        oracle=oracle,
                    )
                )
    bag = bags["lognormal"]
    flat = _strategy_loads("flat", seed)
    for strategy in ("stealing", "rdlb"):
        base = execute(strategy, bag)(flat())
        at = 0.25 * base.elapsed
        faults = FaultPlan(
            name=f"{strategy}-crash", crashes=(SlaveCrash(pid=1, at=at),)
        )
        runs.append(
            Run(
                name=f"lognormal-flat-{strategy}-crash",
                execute=execute(strategy, bag, faults),
                loads=flat,
                warm=True,
                oracle=oracle_makespan(bag.total_ops(), 1.0e6, {}, STRATEGY_P),
                crash_at=at,
                crash_pid=1,
            )
        )
    return Workload(runs)


HIER_P = 256


def _hier_loads(regime: str, seed: int) -> Callable[[], dict]:
    if regime == "trace":
        return lambda: trace_loads(HIER_P, seed)
    return lambda: regime_loads(regime, HIER_P)


def _hier_p256(seed: int) -> Workload:
    """Centralized, hier4/8/16 and diffusion at P=256 under three regimes."""
    bag = synthetic_bag(HIER_P * 8, 2.0e5, name="bag-p256")
    cfg = RunConfig(
        cluster=ClusterSpec(n_slaves=HIER_P, processor=ProcessorSpec(speed=1.0e6)),
        execute_numerics=False,
    )
    modes: dict[str, Callable[[dict], Any]] = {
        "centralized": lambda ld: run_hierarchical(bag, cfg, ld, fanout=None),
        "hier4": lambda ld: run_hierarchical(bag, cfg, ld, fanout=4),
        "hier8": lambda ld: run_hierarchical(bag, cfg, ld, fanout=8),
        "hier16": lambda ld: run_hierarchical(bag, cfg, ld, fanout=16),
        "diffusion": lambda ld: run_diffusion(bag, cfg, ld),
    }
    runs: list[Run] = []
    for regime in ("constant", "oscillating", "trace"):
        loads = _hier_loads(regime, seed)
        oracle = oracle_makespan(bag.total_ops(), 1.0e6, loads(), HIER_P)
        for mode, fn in modes.items():
            runs.append(
                Run(
                    name=f"{regime}-{mode}",
                    execute=lambda ld, fn=fn: _from_plane(fn(ld), bag.n_units),
                    loads=loads,
                    warm=regime == "constant" and mode in ("centralized", "diffusion"),
                    oracle=oracle,
                )
            )
    return Workload(runs)


_BUILDERS = {
    "paper_sweep": _paper_sweep,
    "numerics_verified": _numerics_verified,
    "strategy_irregular": _strategy_irregular,
    "hier_p256": _hier_p256,
}


def build(name: str, seed: int) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed``."""
    return _BUILDERS[name](seed)


def numeric_error(result: Any, reference: Any) -> tuple[bool, float]:
    """(bit-exact, max abs error) of a distributed result vs the reference."""
    a, b = np.asarray(result), np.asarray(reference)
    if a.shape != b.shape:
        return False, math.inf
    return bool(np.array_equal(a, b)), float(np.max(np.abs(a - b), initial=0.0))


def check(run: Run, out: Outcome, first: Outcome | None) -> list[str]:
    """Output checks of one run; returns the problems found (empty = ok).

    Unit loss is not a check failure: it is the measured quantity behind
    ``units_lost_frac``.  A loss that breaks conservation is.
    """
    problems = []
    if first is not None and out.fingerprint() != first.fingerprint():
        problems.append(
            f"simulated outcome {out.fingerprint()} differs from pass 1 "
            f"{first.fingerprint()}"
        )
    if run.reference is not None:
        if out.result is None:
            problems.append("no numeric result")
        else:
            exact, err = numeric_error(out.result, run.reference)
            if run.bit_exact and not exact:
                problems.append(f"not bit-exact (max abs err {err:.3e})")
            elif err > MM_ATOL:
                problems.append(f"max abs err {err:.3e} > {MM_ATOL:.0e}")
    if out.completed is not None and out.units is not None:
        if out.completed + out.lost != out.units:
            problems.append(
                f"completed {out.completed} + lost {out.lost} != units {out.units}"
            )
    if run.crash_at is not None and not (
        run.crash_pid in out.dead_pids and run.crash_at < out.elapsed
    ):
        problems.append(
            f"crash of pid {run.crash_pid} at {run.crash_at:.3f}s did not land "
            f"before the run ended at {out.elapsed:.3f}s"
        )
    return problems
