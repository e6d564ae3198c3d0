"""Scaling the control plane beyond the paper's single master.

The paper's central load balancer polls every slave, which stops scaling
past a few dozen processors.  This subpackage provides the two remedies
evaluated in the scaling-crossover study (see ``docs/scaling.md``):

- :mod:`repro.scale.hierarchy` — a tree of sub-masters, each running the
  paper's rate-filtered redistribution over its shard and exchanging
  only aggregate rate/remaining-work summaries upward, with sub-master
  death detection and shard re-parenting;
- the topology-aware decentralized diffusion mode (promoted
  :mod:`repro.baselines.diffusion` over :mod:`repro.sim.network`
  topologies);
- :mod:`repro.scale.crossover` — the scaling-crossover study's cell and
  analysis, sweeping processor count x load volatility across the three
  control planes (the ``benchmarks/bench_scaling_crossover.py`` table).
"""

from .crossover import crossover_analysis
from .hierarchy import (
    HierarchyResult,
    build_tree,
    hier_can_recover,
    run_hierarchical,
)
from .protocol import ScaleTags
from .workload import SyntheticBag, synthetic_bag

__all__ = [
    "ScaleTags",
    "HierarchyResult",
    "build_tree",
    "crossover_analysis",
    "hier_can_recover",
    "run_hierarchical",
    "SyntheticBag",
    "synthetic_bag",
]
