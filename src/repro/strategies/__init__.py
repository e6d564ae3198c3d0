"""Pluggable DLB strategy layer.

One shared entry point — :func:`run_strategy` — runs a PARALLEL_MAP plan
under any registered dynamic-load-balancing strategy and returns a
normalized :class:`StrategyOutcome`, so the paper's rate-filtered
redistribution can be raced head-to-head against the robust
alternatives:

- ``rate`` — the paper's design: rate-filtered proportional
  redistribution (the flat tree of :mod:`repro.scale.hierarchy`);
- ``hier`` — the same protocol over a sub-master tree;
- ``diffusion`` — decentralised neighbour exchange;
- ``stealing`` — decentralised work stealing (steal-half, randomized
  victim selection, steal/deny/abort; a coordinator ledger reissues
  unreported units to idle workers);
- ``rdlb`` — robust self-scheduling (central chunk queue that reissues
  outstanding chunks once it runs dry, no rate filtering);
- ``fsc`` / ``gss`` / ``factoring`` / ``trapezoid`` — the classic
  self-scheduling chunking variants (the chunk policies of
  :mod:`repro.strategies.rdlb`) on the same master, never reissuing a
  chunk (so they refuse crash plans).

Selection is wired through :func:`run_strategy` and
``repro run --strategy``.  The perturbation-robustness bench suite
(:mod:`repro.strategies.robustness`) races the strategies over irregular
workloads and recorded load traces and reports degradation versus an
idealized oracle makespan.
"""

from .rdlb import RdlbResult, run_rdlb
from .registry import (
    STRATEGIES,
    StrategyOutcome,
    available_strategies,
    run_strategy,
)
from .protocol import RobustTags, StealTags
from .stealing import StealingResult, run_stealing

__all__ = [
    "STRATEGIES",
    "RdlbResult",
    "RobustTags",
    "StealTags",
    "StealingResult",
    "StrategyOutcome",
    "available_strategies",
    "run_rdlb",
    "run_stealing",
    "run_strategy",
]
