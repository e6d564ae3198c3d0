"""Load-balancing frequency selection (paper Section 4.3, Figure 4).

Three lower bounds constrain the period between load balancings:

- *interaction cost*: master-slave message exchange is pure overhead, so
  the period must be at least ``INTERACTION_MULTIPLE`` (20) times the
  measured interaction cost (<= 5% overhead);
- *cost of moving work*: tracking load more often than work can usefully
  move does not pay; the period must be at least ``MOVEMENT_MULTIPLE``
  (0.1) times the measured cost of moving work;
- *OS scheduling*: measuring near the quantum makes rates oscillate with
  context switching, so the period must be at least ``QUANTUM_MULTIPLE``
  (5) quanta and never below ``MIN_PERIOD`` (500 ms).

The target period is the maximum of the three bounds.  From the target
period and the predicted computation rate, the balancer tells each slave
how many hook instances to skip before the next balancing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError

__all__ = ["PeriodBounds", "select_period", "hooks_to_skip"]

#: Absolute floor on the load-balancing period (paper: 500 ms).
MIN_PERIOD = 0.5
#: The period spans at least this many scheduling quanta (paper: 5).
QUANTUM_MULTIPLE = 5.0
#: The period is at least this many master-slave interaction costs
#: (paper: 20, i.e. <= 5% overhead).
INTERACTION_MULTIPLE = 20.0
#: The period is at least this fraction of the cost of moving work
#: (paper: 0.1).
MOVEMENT_MULTIPLE = 0.1


@dataclass(frozen=True)
class PeriodBounds:
    """The individual lower bounds and the resulting target period."""

    from_interaction: float
    from_movement: float
    from_quantum: float
    floor: float

    @property
    def period(self) -> float:
        return max(
            self.from_interaction, self.from_movement, self.from_quantum, self.floor
        )

    def binding_constraint(self) -> str:
        """Which bound determines the period (for diagnostics)."""
        named = {
            "interaction": self.from_interaction,
            "movement": self.from_movement,
            "quantum": self.from_quantum,
            "floor": self.floor,
        }
        return max(named, key=lambda k: named[k])


def select_period(
    interaction_cost: float,
    movement_cost: float,
    quantum: float,
) -> PeriodBounds:
    """Compute the target load-balancing period.

    ``interaction_cost`` and ``movement_cost`` are measured at run time
    (movement cost each time work moves); ``quantum`` is the OS
    scheduling quantum.
    """
    if interaction_cost < 0 or movement_cost < 0 or quantum <= 0:
        raise ConfigError(
            "need interaction_cost >= 0, movement_cost >= 0, quantum > 0"
        )
    return PeriodBounds(
        from_interaction=INTERACTION_MULTIPLE * interaction_cost,
        from_movement=MOVEMENT_MULTIPLE * movement_cost,
        from_quantum=QUANTUM_MULTIPLE * quantum,
        floor=MIN_PERIOD,
    )


def hooks_to_skip(
    period: float, predicted_rate: float, units_per_hook: float
) -> int:
    """Number of hook instances a slave should let pass before invoking
    the balancer again (Section 4.3).

    ``predicted_rate`` is in work units per second; ``units_per_hook`` is
    how many units one hook interval covers (1 for per-iteration hooks, a
    strip's worth for block hooks, the owned count for per-rep hooks).
    Always at least 1.
    """
    if period <= 0 or units_per_hook <= 0:
        raise ConfigError("period and units_per_hook must be positive")
    if predicted_rate <= 0:
        return 1
    return max(1, round(period * predicted_rate / units_per_hook))
