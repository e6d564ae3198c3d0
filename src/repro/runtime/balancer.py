"""Central load-balancing decision algorithm (paper Section 3.2).

Pure logic, independent of the simulator, so every refinement can be unit
tested: proportional redistribution from filtered rates, the 10%
improvement threshold, the profitability phase, restricted vs
unrestricted instruction generation, and frequency selection.  The
decision reads per-slave unit counts and returns sized moves; which unit
ids move is the master's business, and only for moves that go ahead.
"""

from __future__ import annotations

from operator import truediv
from typing import Any, Mapping, Sequence

from ..config import BalancerConfig, NetworkSpec
from ..errors import ProtocolError
from .filtering import TrendFilter
from .frequency import hooks_to_skip, period_bounds
from .partition import Move, adjacent_moves, proportional_counts, surplus_moves
from .profitability import estimate_movement_cost, movement_profitable
from .protocol import SlaveReport

__all__ = ["BalancerState", "BalancerDecision", "decide"]

#: The BalancerDecision attributes computed on first read.
_JUDGED = frozenset(
    {"targets", "t_current", "t_balanced", "improvement", "share_deviation"}
)

#: How many load-balancing periods of projected savings the
#: profitability check may credit: rates can change again, so
#: far-future benefit is not trusted.
PROFITABILITY_HORIZON_PERIODS = 4.0


class BalancerDecision:
    """Outcome of one load-balancing phase.

    ``counts`` and ``rates`` are the per-slave units and filtered rates
    the phase balanced, and ``moves`` the sized moves ``(src, dst, k)``
    it orders (empty unless work moves).  The proportional ``targets``
    and what is judged from them are computed together on first read: a
    report that may not move work needs none of them unless obs records
    them.
    """

    targets: list[int]
    t_current: float  # predicted completion time as allocated
    t_balanced: float  # ... and with the targets
    improvement: float
    share_deviation: float  # worst per-slave deviation from its target

    def __init__(
        self,
        phase: int,
        period: float,
        counts: Sequence[int],
        rates: Sequence[float],
        units_per_hook: Mapping[int, float],
    ):
        self.phase = phase
        self.period = period
        self.counts = counts
        self.rates = rates
        self.units_per_hook = units_per_hook
        self.moves: list[Move] = []
        #: None | "threshold" | "profitability" | "in-flight"
        self.cancelled: str | None = None

    def __getattr__(self, name: str) -> Any:
        # Called only for attributes not set yet: the judged ones.
        if name not in _JUDGED:
            raise AttributeError(name)
        counts, rates = self.counts, self.rates
        total = sum(counts)
        minimum = 1 if total >= len(counts) else 0
        self.targets = targets = proportional_counts(total, rates, minimum=minimum)
        self.t_current = t_cur = _completion_time(counts, rates)
        self.t_balanced = t_new = _completion_time(targets, rates)
        self.improvement = 0.0 if t_cur <= 0 else (t_cur - t_new) / t_cur
        self.share_deviation = _share_deviation(counts, targets)
        return self.__dict__[name]

    def skip_hooks(self, pid: int) -> int:
        """Hooks slave ``pid`` passes between reports: one balancing
        period at its filtered rate.  Computed when read, since a reply
        goes to one slave, not all of them; a slave missing from
        ``units_per_hook`` covers one unit per hook."""
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
        #: ``filtered_rates()`` as a list, kept current by ``observe``
        #: and ``exclude``; replaced, never edited, so a decision keeps
        #: the rates it read.
        self.rates: list[float] = [1.0] * n_slaves
        # Live slaves with no sample yet take the mean default, summed
        # fresh over each sampled live slave's value, with 0.0 standing
        # for the rest: adding 0.0 leaves a float sum exact, so the mean
        # is bit-equal to filtered_rates()'.
        self._unsampled = set(range(n_slaves))
        self._terms = [0.0] * n_slaves

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
            pid = report.pid
            f = self.filters[pid]
            f.update(rate)
            if f.value is not None and pid not in self.excluded:
                self._unsampled.discard(pid)
                self._terms[pid] = f.value
                self._set_rate(pid, max(f.value, 1e-9))
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
        self._unsampled.discard(pid)
        self._terms[pid] = 0.0
        self._set_rate(pid, 1e-9)

    def _set_rate(self, pid: int, rate: float) -> None:
        """Replace ``rates`` with a list where ``pid`` has ``rate`` and
        every unsampled slave the mean default."""
        rates = self.rates.copy()
        rates[pid] = rate
        if self._unsampled:
            known = self.n_slaves - len(self.excluded) - len(self._unsampled)
            default = max(sum(self._terms) / known if known else 1.0, 1e-9)
            for q in self._unsampled:
                rates[q] = default
        self.rates = rates

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


def _completion_time(counts: Sequence[int], rates: Sequence[float]) -> float:
    """Predicted time for the slowest slave to finish its allocation,
    assuming equal-cost remaining units (paper Section 3.2)."""
    return max(map(truediv, counts, rates), default=0.0)


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
    counts: Sequence[int],
    units_per_hook: Mapping[int, float],
    remaining_units: float,
    allow_movement: bool = True,
    adjacent: bool = False,
) -> BalancerDecision:
    """Run one load-balancing phase and produce instructions.

    ``counts`` are the units balanced per slave: ownership, or, where
    ownership does not measure the work left, the units slaves report as
    unfinished near the end of independent iterations, or the units
    still active on a shrinking reduction front (Section 4.7).
    ``allow_movement=False`` is used while a previous movement is still
    in flight.  ``adjacent`` restricts moves to neighbouring slaves
    (block partitions); otherwise any pair may trade.
    """
    cfg = state.config
    state.phase += 1
    rates = state.rates
    total = sum(counts)
    # Cost of one typical movement, the frequency bound's scale: the
    # imbalance of one period's drift, about a tenth of an allocation.
    movement_cost = state.move_cost_per_unit * max(1.0, total / len(counts) * 0.1)
    period = max(period_bounds(state.interaction_cost, movement_cost, state.quantum))
    decision = BalancerDecision(state.phase, period, counts, rates, units_per_hook)

    if not allow_movement:
        decision.cancelled = "in-flight"
        return decision
    if total == 0:
        return decision
    improvement = decision.improvement
    threshold = cfg.improvement_threshold
    if improvement < threshold and decision.share_deviation < threshold:
        if improvement > 0:
            decision.cancelled = "threshold"
        return decision

    pair = adjacent_moves if adjacent else surplus_moves
    moves = pair(counts, decision.targets)
    if not moves:
        return decision

    if cfg.profitability_enabled:
        estimate = estimate_movement_cost(
            [k for _, _, k in moves],
            unit_bytes=state.unit_bytes,
            bandwidth=state.network.bandwidth,
            latency=state.network.latency,
            pack_cpu_per_unit=2.0e-5,
            fixed_cpu=1.0e-3,
            measured_per_unit=(
                state.move_cost_per_unit if state.measured_move_cost else None
            ),
        )
        remaining_time = remaining_units / max(sum(rates), 1e-9)
        horizon = min(remaining_time, PROFITABILITY_HORIZON_PERIODS * period)
        if not movement_profitable(
            estimate, decision.t_current, decision.t_balanced, horizon
        ):
            decision.cancelled = "profitability"
            return decision

    decision.moves = moves
    return decision
