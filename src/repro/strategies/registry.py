"""Shared strategy interface: one entry point over every DLB plane.

:func:`run_strategy` normalizes the per-plane entry functions (their
configs, result types, and fault support differ) into a single callable
returning a :class:`StrategyOutcome`, which is what the CLI
(``repro run --strategy``), the perturbation-robustness bench, and the
chaos harness consume.  The classic self-scheduling chunking variants
(FSC/GSS/factoring/trapezoid) are first-class strategies: they run
through the robust self-scheduling master, which gives each its classic
chunk sequence with recorder support and no reissue (so they refuse
crash plans).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from ..config import RunConfig
from ..errors import ConfigError
from ..faults import FaultPlan
from ..obs import Recorder
from ..runtime.mapplane import MapResult
from ..sim import LoadGenerator
from .rdlb import run_rdlb
from .stealing import run_stealing

__all__ = [
    "STRATEGIES",
    "StrategyOutcome",
    "available_strategies",
    "run_strategy",
]

#: strategy name -> one-line description (shown by ``repro run --help``
#: and used for the matrix in docs/strategies.md).
STRATEGIES: dict[str, str] = {
    "rate": (
        "the paper's plane: centralized rate-filtered proportional "
        "redistribution (flat tree)"
    ),
    "hier": "the same protocol over a sub-master tree (fanout 8)",
    "diffusion": "decentralized near-neighbour exchange",
    "stealing": (
        "decentralized work stealing: steal-half, randomized victims, "
        "steal/deny/abort, a coordinator ledger that reissues unreported "
        "units to idle workers"
    ),
    "rdlb": (
        "robust self-scheduling: central chunk queue that reissues "
        "outstanding chunks once it runs dry (factoring chunks, no rate "
        "filtering)"
    ),
    "fsc": "fixed-size chunk self-scheduling (CSS), promoted baseline",
    "gss": "guided self-scheduling, promoted baseline",
    "factoring": "factoring self-scheduling, promoted baseline",
    "trapezoid": "trapezoid self-scheduling, promoted baseline",
}


def available_strategies() -> tuple[str, ...]:
    """Names accepted by :func:`run_strategy` and ``--strategy``."""
    return tuple(STRATEGIES)


@dataclass
class StrategyOutcome:
    """Normalized outcome of one strategy run.

    ``raw`` keeps the plane-specific result object
    (:class:`~repro.scale.hierarchy.HierarchyResult`,
    :class:`~repro.strategies.stealing.StealingResult`, ...) for callers
    that need plane-specific counters.
    """

    strategy: str
    name: str
    n_slaves: int
    elapsed: float
    sequential_time: float
    message_count: int
    bytes_sent: int
    dead_pids: tuple[int, ...]
    result: Any
    raw: Any

    @property
    def speedup(self) -> float:
        return self.sequential_time / self.elapsed if self.elapsed > 0 else 0.0

    def summary(self) -> str:
        return (
            f"{self.name} [{self.strategy}]: P={self.n_slaves} "
            f"elapsed={self.elapsed:.2f}s speedup={self.speedup:.2f} "
            f"msgs={self.message_count}"
        )


def _wrap(strategy: str, res: MapResult) -> StrategyOutcome:
    return StrategyOutcome(
        strategy=strategy,
        name=res.name,
        n_slaves=res.n_slaves,
        elapsed=res.elapsed,
        sequential_time=res.sequential_time,
        message_count=res.message_count,
        bytes_sent=res.bytes_sent,
        dead_pids=res.dead_pids,
        result=res.result,
        raw=res,
    )


def run_strategy(
    strategy: str,
    plan,
    run_cfg: RunConfig | None = None,
    loads: Mapping[int, LoadGenerator] | None = None,
    *,
    seed: int = 0,
    recorder: Recorder | None = None,
    faults: FaultPlan | None = None,
) -> StrategyOutcome:
    """Run ``plan`` under the named strategy and normalize the outcome.

    ``diffusion`` has no fault hooks, so passing a non-empty ``faults``
    plan with it is a :class:`ConfigError` (its recorder is likewise
    not wired and is ignored).  ``rate``/``hier`` and the classic
    self-scheduling variants refuse crash plans they cannot survive.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(
            f"unknown strategy {strategy!r}; "
            f"choose from {', '.join(available_strategies())}"
        )
    run_cfg = run_cfg or RunConfig()
    if strategy in ("rate", "hier"):
        from ..scale.hierarchy import run_hierarchical

        res = run_hierarchical(
            plan,
            run_cfg,
            loads,
            fanout=None if strategy == "rate" else 8,
            seed=seed,
            recorder=recorder,
            faults=faults,
        )
        return _wrap(strategy, res)
    if strategy == "diffusion":
        from ..baselines.diffusion import run_diffusion

        if faults is not None and not faults.empty:
            raise ConfigError(
                "the diffusion strategy has no fault hooks; "
                "run it without --faults"
            )
        res = run_diffusion(plan, run_cfg, loads, seed=seed)
        return _wrap(strategy, res)
    if strategy == "stealing":
        res = run_stealing(
            plan,
            run_cfg,
            loads,
            seed=seed,
            recorder=recorder,
            faults=faults,
        )
        return _wrap(strategy, res)
    # rdlb and the promoted chunking variants share the robust master.
    res = run_rdlb(
        plan,
        run_cfg,
        loads,
        strategy=strategy,
        seed=seed,
        recorder=recorder,
        faults=faults,
    )
    return _wrap(strategy, res)
