"""Checkpoint artifacts: per-slave snapshots and the epoch ledger entry.

Both classes are plain data.  A snapshot's ``local`` is opaque
application state (numpy-bearing dicts) that the slave copies with
:func:`repro.fastcopy.fast_state_copy`; snapshots travel to the master
or a buddy as in-process message payloads, never serialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["SlaveSnapshot", "CheckpointEpoch"]


@dataclass
class SlaveSnapshot:
    """One slave's state at a checkpoint barrier.

    Attributes:
        pid: owning slave.
        epoch: checkpoint epoch this snapshot belongs to.
        rep: distributed-loop repetition the slave will execute next
            (the epoch's barrier repetition; 0 for the initial state).
        units: unit ids owned at the barrier (the epoch cut for ``pid``).
        local: deep-copied opaque local state (``None`` on cost-only
            runs, where no numerics exist to restore).
        completed: per-unit progress (``REDUCTION_FRONT``: next front
            each unit must absorb); empty for other shapes.
        front_sent: per-unit broadcast-done flags (``REDUCTION_FRONT``).
        meta: free-form shape extras.
    """

    pid: int
    epoch: int
    rep: int
    units: tuple[int, ...] = ()
    local: Any = None
    completed: dict[int, int] = field(default_factory=dict)
    front_sent: dict[int, bool] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)


@dataclass
class CheckpointEpoch:
    """Master-side ledger entry for one coordinated checkpoint epoch.

    Attributes:
        epoch: epoch number (0 is the synthetic initial-state epoch).
        barrier: repetition at which every member snapshots (top of
            sweep ``barrier`` for PIPELINE, top of front step ``barrier``
            for REDUCTION_FRONT; unused for PARALLEL_MAP, which
            snapshots at any hook).
        opened_at: simulated time the epoch was initiated.
        members: slaves that must deposit for the epoch to commit.
        cut: ownership at the cut, ``pid -> sorted unit ids``.
        boundaries: block-partition boundaries at the cut (``None`` for
            index partitions).
        next_move_id: first move id *not* covered by the cut; moves with
            ``id >= next_move_id`` are voided on rollback to this epoch.
        placement: ``"master"`` or ``"buddy"``.
        buddies: ``pid -> buddy pid`` holding its snapshot data (buddy
            placement only).
        committed_at: commit time, ``None`` while open/aborted.
        snapshots: deposited snapshots (master placement; buddy
            placement stores only manifests here, keyed with
            ``local=None``).
    """

    epoch: int
    barrier: int
    opened_at: float
    members: tuple[int, ...]
    cut: dict[int, tuple[int, ...]]
    boundaries: tuple[int, ...] | None = None
    next_move_id: int = 0
    placement: str = "master"
    buddies: dict[int, int] = field(default_factory=dict)
    committed_at: float | None = None
    snapshots: dict[int, SlaveSnapshot] = field(default_factory=dict)

    @property
    def committed(self) -> bool:
        return self.committed_at is not None
