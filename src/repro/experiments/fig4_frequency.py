"""Figure 4 — periods affecting load-balancing frequency selection.

The figure shows three lower bounds on the balancing period: 0.1x the
cost of moving work, 20x the master-slave interaction cost, and 5x the
scheduling quantum (>= 500 ms).  This experiment evaluates the bounds
over a range of measured costs and reports which constraint binds.
"""

from __future__ import annotations

from ..runtime.frequency import select_period
from .common import ExperimentSeries, PAPER_QUANTUM

__all__ = ["run"]


def run() -> ExperimentSeries:
    series = ExperimentSeries(
        name="Figure 4: load-balancing period selection",
        headers=(
            "interaction_cost",
            "movement_cost",
            "bound_interaction",
            "bound_movement",
            "bound_quantum",
            "period",
            "binding",
        ),
        expected=(
            "period = max(20 x interaction, 0.1 x movement, 5 quanta, 0.5 s); "
            "for Nectar-scale costs the quantum/floor bound binds until "
            "movement costs reach seconds"
        ),
    )
    scenarios = [
        (0.002, 0.05),   # cheap interaction, cheap movement -> floor binds
        (0.002, 10.0),   # heavy movement -> movement bound binds
        (0.05, 0.5),     # slow network -> interaction bound binds
        (0.002, 2.0),
        (0.1, 20.0),
    ]
    for inter, move in scenarios:
        bounds = select_period(inter, move, PAPER_QUANTUM)
        series.add(
            inter,
            move,
            bounds.from_interaction,
            bounds.from_movement,
            max(bounds.from_quantum, bounds.floor),
            bounds.period,
            bounds.binding_constraint(),
        )
    return series
