"""Ablations for claims the paper makes in prose.

- Section 3.3: pipelined master-slave interaction hides the balancing
  round trip; synchronous interaction puts it on the critical path
  ("experiments comparing the pipelined and synchronous approaches
  confirm that pipelining is important").
- Section 4.4: strip mining the pipelined loop to ~1.5 quanta makes
  execution times predictable and reduces synchronization; too-small
  strips amplify load-imbalance effects.
- Section 3.2: the balancer refinements (trend filter, 10% improvement
  threshold, profitability phase) prevent excessive work movement under
  a fluctuating load.
"""

from __future__ import annotations

from ..apps.matmul import build_matmul
from ..apps.sor import build_sor
from ..config import BalancerConfig, GrainConfig
from ..sim import ConstantLoad, OscillatingLoad
from .common import ExperimentSeries, run_point

__all__ = ["pipelining", "grain", "refinements"]


def pipelining(
    n: int = 500,
    n_slaves: int = 7,
    latencies: tuple[float, ...] = (5e-4, 0.02, 0.1),
    seed: int = 0,
) -> ExperimentSeries:
    """Pipelined vs synchronous master-slave interaction (Section 3.3).

    The paper notes that network delays on their target vary
    significantly, which is why they pipeline; the sweep over latencies
    shows the synchronous penalty growing with the round-trip cost.
    """
    from ..config import NetworkSpec

    series = ExperimentSeries(
        name="Ablation (3.3): pipelined vs synchronous master-slave interaction",
        headers=(
            "latency_s", "t_sync", "t_pipe", "sync_penalty_%", "eff_sync", "eff_pipe"
        ),
        expected=(
            "pipelining removes the balancing round trip from the critical "
            "path; the synchronous penalty grows with network latency"
        ),
    )
    plan = build_matmul(n=n, n_slaves_hint=n_slaves)
    loads = {0: ConstantLoad(k=1)}
    for latency in latencies:
        net = NetworkSpec(latency=latency)
        r_sync = run_point(
            plan, n_slaves, loads=loads, pipelined=False, seed=seed, network=net
        )
        r_pipe = run_point(
            plan, n_slaves, loads=loads, pipelined=True, seed=seed, network=net
        )
        penalty = 100.0 * (r_sync.elapsed - r_pipe.elapsed) / r_pipe.elapsed
        series.add(
            latency,
            r_sync.elapsed,
            r_pipe.elapsed,
            penalty,
            r_sync.efficiency,
            r_pipe.efficiency,
        )
    return series


def grain(
    n: int = 2000,
    maxiter: int = 15,
    n_slaves: int = 4,
    seed: int = 0,
) -> ExperimentSeries:
    """Strip-mining granularity sweep (Section 4.4).

    Block sizes are given as multiples of the startup rule's choice
    (~150 ms per strip = 1.5x the scheduling quantum).
    """
    series = ExperimentSeries(
        name="Ablation (4.4): strip size of the pipelined loop (SOR)",
        headers=("block_rows", "block_time_s", "t_elapsed", "efficiency", "messages"),
        expected=(
            "tiny strips (<< quantum) synchronize too often and are "
            "hardest hit by competing load; ~1.5 quanta strips perform "
            "well; very large strips lose pipeline overlap"
        ),
    )
    loads = {0: ConstantLoad(k=1)}
    # The startup rule's block for these parameters.
    auto_plan = build_sor(n=n, maxiter=maxiter, n_slaves_hint=n_slaves)
    per_row_time = (
        auto_plan.units_cost(0, range(1, n - 1))
        / (n - 2)
        * ((n - 2) / n_slaves)
        / auto_plan.unit_cost(0, n // 2)
    )
    for rows in (2, 8, 24, 75, 300, 999):
        grain_cfg = GrainConfig(block_size_override=rows)
        plan = build_sor(
            n=n, maxiter=maxiter, grain=grain_cfg, n_slaves_hint=n_slaves
        )
        r = run_point(plan, n_slaves, loads=loads, seed=seed)
        block_time = (
            plan.unit_cost(0, n // 2) * ((n - 2) / n_slaves) * rows / (n - 2)
        ) / 1.0e6
        series.add(rows, block_time, r.elapsed, r.efficiency, r.message_count)
    return series


def refinements(
    n: int = 500,
    reps: int = 4,
    n_slaves: int = 4,
    seed: int = 0,
) -> ExperimentSeries:
    """Balancer refinement toggles under an oscillating load (Section 3.2)."""
    series = ExperimentSeries(
        name="Ablation (3.2): balancer refinements under oscillating load",
        headers=("config", "t_elapsed", "efficiency", "moves", "units_moved"),
        expected=(
            "disabling the filter / threshold / profitability check causes "
            "extra movement (thrash) without improving efficiency"
        ),
    )
    plan = build_matmul(n=n, reps=reps, n_slaves_hint=n_slaves)
    loads = {0: OscillatingLoad(k=1, period=20.0, duration=10.0)}
    configs = {
        "all refinements": BalancerConfig(),
        "no filter": BalancerConfig(filter_enabled=False),
        "no 10% threshold": BalancerConfig(improvement_threshold=0.0),
        "no profitability": BalancerConfig(profitability_enabled=False),
        "none": BalancerConfig(
            filter_enabled=False,
            improvement_threshold=0.0,
            profitability_enabled=False,
        ),
    }
    for label, bal in configs.items():
        r = run_point(plan, n_slaves, loads=loads, balancer=bal, seed=seed)
        series.add(
            label, r.elapsed, r.efficiency, r.log.moves_applied, r.log.units_moved
        )
    return series
