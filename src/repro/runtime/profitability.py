"""Movement profitability determination (paper Section 3.2).

After redistribution instructions are generated, a more detailed
profitability phase compares the estimated cost of the work movement with
the projected benefit and cancels the movement if it cannot pay off
(following Willebeek-LeMair & Reeves' profitability framework, the
paper's reference [16]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import ConfigError

__all__ = ["MovementEstimate", "estimate_movement_cost", "movement_profitable"]


@dataclass(frozen=True)
class MovementEstimate:
    """Predicted cost of executing a set of transfers."""

    total_units: int
    wire_time: float
    cpu_time: float

    @property
    def total_time(self) -> float:
        return self.wire_time + self.cpu_time


def estimate_movement_cost(
    sizes: Sequence[int],
    unit_bytes: int,
    bandwidth: float,
    latency: float,
    pack_cpu_per_unit: float,
    fixed_cpu: float,
    measured_per_unit: float | None = None,
) -> MovementEstimate:
    """Estimate how long moves of the given ``sizes`` (units per
    transfer) take.

    When a measured per-unit movement cost is available (the runtime
    measures it each time work moves, Section 4.3), it overrides the
    analytic model.
    """
    if unit_bytes <= 0 or bandwidth <= 0:
        raise ConfigError("unit_bytes and bandwidth must be positive")
    total_units = sum(sizes)
    if total_units == 0:
        return MovementEstimate(0, 0.0, 0.0)
    if measured_per_unit is not None and measured_per_unit > 0:
        return MovementEstimate(
            total_units=total_units,
            wire_time=measured_per_unit * total_units,
            cpu_time=fixed_cpu * len(sizes),
        )
    wire = sum(latency + k * unit_bytes / bandwidth for k in sizes)
    cpu = fixed_cpu * len(sizes) + pack_cpu_per_unit * total_units * 2
    return MovementEstimate(total_units=total_units, wire_time=wire, cpu_time=cpu)


def movement_profitable(
    estimate: MovementEstimate,
    t_current: float,
    t_balanced: float,
    horizon: float,
) -> bool:
    """Does the projected benefit exceed the movement cost?

    ``t_current`` / ``t_balanced`` are the predicted per-period completion
    times of the current and proposed distributions; the saving accrues
    over the remaining computation, capped at ``horizon`` seconds of
    lookahead (rates may change again, so benefits far in the future are
    not credited).
    """
    if estimate.total_units == 0:
        return False
    saving_rate = max(0.0, (t_current - t_balanced) / max(t_current, 1e-12))
    projected_benefit = saving_rate * max(0.0, horizon)
    return projected_benefit > estimate.total_time
