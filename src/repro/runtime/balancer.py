"""Central load-balancing decision algorithm (paper Section 3.2).

Pure logic, independent of the simulator, so every refinement can be unit
tested: proportional redistribution from filtered rates, the 10%
improvement threshold, the profitability phase, restricted vs
unrestricted instruction generation, and frequency selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..config import BalancerConfig, NetworkSpec
from ..errors import ProtocolError
from .filtering import TrendFilter
from .frequency import hooks_to_skip, select_period
from .partition import (
    BlockPartition,
    IndexPartition,
    Transfer,
    proportional_counts,
    transfers_from_sets,
)
from .profitability import estimate_movement_cost, movement_profitable
from .protocol import SlaveReport

__all__ = ["BalancerState", "BalancerDecision", "RemainingSets", "decide"]

#: How many load-balancing periods of projected savings the
#: profitability check may credit: rates can change again, so
#: far-future benefit is not trusted.
PROFITABILITY_HORIZON_PERIODS = 4.0


@dataclass(frozen=True)
class RemainingSets:
    """Per-slave counts of the units that still carry movable work, with
    the unit ids themselves built by ``sets()`` only when work is cut."""

    counts: list[int]
    sets: Callable[[], dict[int, Sequence[int]]]


@dataclass
class BalancerDecision:
    """Outcome of one load-balancing phase."""

    phase: int
    transfers: list[Transfer]
    period: float
    rates: dict[int, float]
    units_per_hook: Mapping[int, float]
    t_current: float
    t_balanced: float
    improvement: float
    cancelled: str | None = None  # None | "threshold" | "profitability" | "in-flight"
    share_deviation: float = 0.0  # worst per-slave deviation from target share

    @property
    def moves_work(self) -> bool:
        return bool(self.transfers)

    def skip_hooks(self, pid: int) -> int:
        """Hooks slave ``pid`` passes between reports: one balancing
        period at its filtered rate.  Computed when read, since a reply
        goes to one slave, not all of them."""
        return hooks_to_skip(
            self.period,
            self.rates[pid],
            max(self.units_per_hook.get(pid, 1.0), 1e-9),
        )


class BalancerState:
    """Mutable state the central balancer carries across phases."""

    def __init__(
        self,
        n_slaves: int,
        config: BalancerConfig,
        unit_bytes: int,
        network: NetworkSpec,
        quantum: float,
    ):
        if n_slaves < 1:
            raise ProtocolError("need at least one slave")
        self.n_slaves = n_slaves
        self.config = config
        self.unit_bytes = unit_bytes
        self.network = network
        self.quantum = quantum
        self.filters: dict[int, TrendFilter] = {
            pid: TrendFilter() for pid in range(n_slaves)
        }
        if not config.filter_enabled:
            # Degenerate filter: always take the raw sample.
            self.filters = {
                pid: TrendFilter(slow_gain=1.0, fast_gain=1.0)
                for pid in range(n_slaves)
            }
        # Measured interaction cost: one status+instruction round trip.
        self.interaction_cost = 2.0 * (
            network.send_cpu + network.recv_cpu + network.transfer_time(96)
        )
        # Movement cost per unit: analytic prior, replaced by measurements
        # whenever work actually moves (Section 4.3).
        self.move_cost_per_unit = (
            unit_bytes / network.bandwidth + 2.0e-5 * 2
        )
        self.measured_move_cost = False
        self.phase = 0
        # Slaves declared dead by the failure-tolerant master: their stale
        # rates must not attract proportional shares.
        self.excluded: set[int] = set()

    # ------------------------------------------------------------------

    def observe(self, report: SlaveReport) -> None:
        """Fold a slave report into the filters and cost estimates.

        Rates measured over less than ~2 scheduling quanta are ignored:
        context switching makes such samples oscillate wildly
        (Section 4.3); the slave keeps accumulating and a later report
        carries the full window.
        """
        rate = report.rate
        if rate is not None and report.meas_work >= 2.0 * self.quantum:
            self.filters[report.pid].update(rate)
        if (
            report.measured_move_cost_per_unit is not None
            and report.measured_move_cost_per_unit > 0
        ):
            if self.measured_move_cost:
                self.move_cost_per_unit = (
                    0.5 * self.move_cost_per_unit
                    + 0.5 * report.measured_move_cost_per_unit
                )
            else:
                self.move_cost_per_unit = report.measured_move_cost_per_unit
                self.measured_move_cost = True

    def exclude(self, pid: int) -> None:
        """Permanently zero a (dead) slave's rate for share computation."""
        self.excluded.add(pid)

    def filtered_rates(self) -> dict[int, float]:
        """Filtered units/sec per slave; slaves with no samples yet get
        the mean of the others (or 1.0 if nobody has reported)."""
        known = {
            pid: f.value
            for pid, f in self.filters.items()
            if f.value is not None and pid not in self.excluded
        }
        default = (
            sum(known.values()) / len(known) if known else 1.0
        )
        default = max(default, 1e-9)
        return {
            pid: (
                1e-9
                if pid in self.excluded
                else max(known.get(pid, default), 1e-9)
            )
            for pid in range(self.n_slaves)
        }


def _completion_time(counts: Sequence[int], rates: Mapping[int, float]) -> float:
    """Predicted time for the slowest slave to finish its allocation,
    assuming equal-cost remaining units (paper Section 3.2)."""
    return max(
        (counts[pid] / rates[pid] for pid in range(len(counts))), default=0.0
    )


def _share_deviation(counts: Sequence[int], targets: Sequence[int]) -> float:
    """Worst per-slave relative deviation from its target share, beyond
    the one unit of slack inherent in largest-remainder rounding.

    The improvement threshold alone can stall the balancer far from the
    proportional targets: integer-rounded targets understate achievable
    improvement for near-uniform rates, so a slave can sit several units
    over its share while the predicted completion-time gain stays under
    the threshold.  Comparing this deviation against the same threshold
    lets the balancer keep converging toward the targets without moving
    work over rounding noise (deviation of a single unit is always 0).
    """
    worst = 0.0
    for count, target in zip(counts, targets):
        dev = (abs(count - target) - 1.0) / max(target, 1)
        if dev > worst:
            worst = dev
    return worst


def decide(
    state: BalancerState,
    partition: BlockPartition | IndexPartition,
    units_per_hook: Mapping[int, float],
    remaining_units: float,
    allow_movement: bool = True,
    remaining_sets: RemainingSets | None = None,
) -> BalancerDecision:
    """Run one load-balancing phase and produce instructions.

    ``partition`` is the master's view of current ownership.
    ``allow_movement=False`` is used while a previous movement is still
    in flight.  When ownership does not measure the work left, the master
    passes ``remaining_sets``: for independent iterations near the end of
    a run, the units slaves report as unfinished; for a shrinking
    reduction front, the units still active (Section 4.7).  Their counts
    are balanced instead of ownership, and only those units move.
    """
    cfg = state.config
    state.phase += 1
    rates = state.filtered_rates()
    n = state.n_slaves

    if remaining_sets is not None:
        counts = remaining_sets.counts
    else:
        counts = partition.counts()
    total = sum(counts)

    bounds = select_period(
        state.interaction_cost,
        movement_cost_per_balance(state, counts, rates),
        state.quantum,
    )
    period = bounds.period

    weights = [rates[pid] for pid in range(n)]
    minimum = 1 if total >= n else 0
    targets = proportional_counts(total, weights, minimum=minimum)

    t_cur = _completion_time(counts, rates)
    t_new = _completion_time(targets, rates)
    improvement = 0.0 if t_cur <= 0 else (t_cur - t_new) / t_cur
    deviation = _share_deviation(counts, targets)

    def no_move(reason: str | None) -> BalancerDecision:
        return BalancerDecision(
            phase=state.phase,
            transfers=[],
            period=period,
            rates=rates,
            units_per_hook=units_per_hook,
            t_current=t_cur,
            t_balanced=t_new,
            improvement=improvement,
            cancelled=reason,
            share_deviation=deviation,
        )

    if not allow_movement:
        return no_move("in-flight")
    if total == 0 or (
        improvement < cfg.improvement_threshold
        and deviation < cfg.improvement_threshold
    ):
        return no_move("threshold" if improvement > 0 else None)

    if remaining_sets is not None:
        transfers = transfers_from_sets(remaining_sets.sets(), targets)
    else:
        transfers = partition.transfers_toward(targets)
    if not transfers:
        return no_move(None)

    if cfg.profitability_enabled:
        estimate = estimate_movement_cost(
            transfers,
            unit_bytes=state.unit_bytes,
            bandwidth=state.network.bandwidth,
            latency=state.network.latency,
            pack_cpu_per_unit=2.0e-5,
            fixed_cpu=1.0e-3,
            measured_per_unit=(
                state.move_cost_per_unit if state.measured_move_cost else None
            ),
        )
        total_rate = sum(rates.values())
        remaining_time = remaining_units / max(total_rate, 1e-9)
        horizon = min(remaining_time, PROFITABILITY_HORIZON_PERIODS * period)
        if not movement_profitable(estimate, t_cur, t_new, horizon):
            return no_move("profitability")

    return BalancerDecision(
        phase=state.phase,
        transfers=transfers,
        period=period,
        rates=rates,
        units_per_hook=units_per_hook,
        t_current=t_cur,
        t_balanced=t_new,
        improvement=improvement,
        share_deviation=deviation,
    )


def movement_cost_per_balance(
    state: BalancerState, counts: Sequence[int], rates: Mapping[int, float]
) -> float:
    """Typical cost of one work movement, used for the frequency bound.

    Scale: moving the imbalance of one period's worth of drift — roughly
    a tenth of a slave's allocation — at the measured per-unit cost.
    """
    if not counts:
        return 0.0
    typical_units = max(1.0, sum(counts) / len(counts) * 0.1)
    return state.move_cost_per_unit * typical_units
