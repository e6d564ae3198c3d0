"""Slave-side work-movement bookkeeping (paper Section 4.5).

Tracks movement orders received from the master until they are executed,
and measures the CPU-side cost of moving work (measured each time work
moves; the measurement feeds the frequency selection of Section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..errors import MovementError
from .protocol import MoveOrder

__all__ = ["MovementLedger", "MovePayload"]


@dataclass
class MovePayload:
    """Wire payload of one work movement.

    ``data`` is the application-packed unit state (None in cost-only
    simulation); ``meta`` carries shape-specific phase information, e.g.
    per-unit completed repetition counters for parallel maps or the
    (rep, block) application point plus halo snapshots for pipelines.
    """

    move_id: int
    units: tuple[int, ...]
    data: Any
    meta: dict[str, Any] = field(default_factory=dict)


class MovementLedger:
    """Pending movement orders for one slave."""

    def __init__(self, pid: int):
        self.pid = pid
        self._pending_sends: dict[int, MoveOrder] = {}
        self._pending_recvs: dict[int, MoveOrder] = {}
        self._applied: list[int] = []
        self._canceled: list[int] = []
        # Moves completed straight from their payload before the master's
        # order arrived (the payload carries units + phase, so a blocked
        # pipeline slave can apply it immediately); the late order is then
        # dropped on arrival.
        self._early_done: set[int] = set()
        # Persistent histories for failure recovery: every move id this
        # slave fully executed (its half), and every id voided by a
        # master cancel.  A voided order arriving late is dropped.
        self._done_ids: set[int] = set()
        self._voided: set[int] = set()
        self._last_cost_per_unit: float | None = None

    # -- order intake ---------------------------------------------------

    def add_orders(
        self, sends: tuple[MoveOrder, ...], recvs: tuple[MoveOrder, ...]
    ) -> None:
        for o in sends:
            if o.transfer.src != self.pid:
                raise MovementError(
                    f"slave {self.pid} given send order for src {o.transfer.src}"
                )
            if o.move_id in self._voided:
                continue  # canceled by the master before the order arrived
            if o.move_id in self._pending_sends:
                raise MovementError(f"duplicate send order {o.move_id}")
            self._pending_sends[o.move_id] = o
        for o in recvs:
            if o.transfer.dst != self.pid:
                raise MovementError(
                    f"slave {self.pid} given recv order for dst {o.transfer.dst}"
                )
            if o.move_id in self._voided:
                continue  # canceled by the master before the order arrived
            if o.move_id in self._early_done:
                self._early_done.discard(o.move_id)
                continue  # already applied from the payload
            if o.move_id in self._pending_recvs:
                raise MovementError(f"duplicate recv order {o.move_id}")
            self._pending_recvs[o.move_id] = o

    # -- execution ------------------------------------------------------

    def take_sends(self) -> list[MoveOrder]:
        """All send orders, removed from the ledger (executed at the next
        hook, sends first so adjacent chains cannot deadlock)."""
        orders = sorted(self._pending_sends.values(), key=lambda o: o.move_id)
        self._pending_sends.clear()
        return orders

    def pending_recvs(self) -> list[MoveOrder]:
        return sorted(self._pending_recvs.values(), key=lambda o: o.move_id)

    def complete_recv(self, move_id: int) -> None:
        if move_id in self._pending_recvs:
            del self._pending_recvs[move_id]
        else:
            self._early_done.add(move_id)
        self._applied.append(move_id)
        self._done_ids.add(move_id)

    def mark_sent(self, move_id: int) -> None:
        self._applied.append(move_id)
        self._done_ids.add(move_id)

    def is_voided(self, move_id: int) -> bool:
        return move_id in self._voided

    def void(self, move_id: int) -> bool:
        """Cancel a movement on the master's behalf (peer died).

        Returns False when this slave's half already executed — the
        master then treats the movement as applied instead.  Otherwise
        the order (pending or yet to arrive) is dropped and reported as
        canceled.
        """
        if move_id in self._done_ids:
            return False
        self._pending_sends.pop(move_id, None)
        self._pending_recvs.pop(move_id, None)
        if move_id not in self._voided:
            self._voided.add(move_id)
            self._canceled.append(move_id)
        return True

    def void_quiet(self, move_id: int) -> None:
        """Mark a movement void without reporting it as canceled.

        Used when restoring a checkpoint: every move issued after the
        epoch cut is void, but the master already resolved the whole id
        range on its side, so reporting each id back would be noise.
        """
        self._pending_sends.pop(move_id, None)
        self._pending_recvs.pop(move_id, None)
        self._voided.add(move_id)

    def mark_canceled(self, move_id: int) -> None:
        """A movement both sides abandoned (e.g. issued during a pipeline
        application's final sweep, where catch-up is impossible)."""
        if move_id not in self._pending_recvs and move_id not in self._pending_sends:
            self._early_done.add(move_id)
        self._pending_recvs.pop(move_id, None)
        self._pending_sends.pop(move_id, None)
        self._canceled.append(move_id)

    def has_pending(self) -> bool:
        return bool(self._pending_sends or self._pending_recvs)

    # -- reporting -------------------------------------------------------

    def record_cost(self, wall_time: float, n_units: int) -> None:
        """Measured CPU-side cost of one movement."""
        if n_units > 0 and wall_time >= 0:
            self._last_cost_per_unit = wall_time / n_units

    def pop_report_fields(
        self,
    ) -> tuple[tuple[int, ...], tuple[int, ...], float | None]:
        """Applied + canceled move ids and last measured cost, cleared
        after reporting."""
        applied = tuple(self._applied)
        self._applied.clear()
        canceled = tuple(self._canceled)
        self._canceled.clear()
        cost = self._last_cost_per_unit
        self._last_cost_per_unit = None
        return applied, canceled, cost
