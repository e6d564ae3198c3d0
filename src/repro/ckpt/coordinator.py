"""Master-side checkpoint epoch state machine and rollback splitting.

The :class:`CheckpointCoordinator` is deliberately pure: the master
calls it with facts (time, acks, deposits) and reads decisions back;
all message traffic and partition mutation stays in
``repro.runtime.master``.  The two re-partition helpers compute how a
dead slave's iterations at an epoch cut are divided among survivors:

- :func:`pipeline_repartition` splits each maximal run of dead slaves'
  contiguous block at its midpoint between the two adjacent live
  neighbours (one-sided when the run touches the edge of the ring), so
  the block distribution — and hence minimal boundary communication —
  is preserved.
- :func:`reduction_repartition` apportions the pooled dead units over
  the survivors proportionally to their measured rates, the same policy
  PR 3's reassignment uses for independent iterations.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..config import CheckpointConfig
from ..errors import PartitionError
from .model import CheckpointEpoch, SlaveSnapshot

__all__ = [
    "CheckpointCoordinator",
    "pipeline_repartition",
    "reduction_repartition",
]

#: How many reps past the latest reported progress the master first
#: places the checkpoint barrier; each barrier miss widens it by one.
BARRIER_MARGIN = 2


class CheckpointCoordinator:
    """Epoch ledger: open -> (deposit per member) -> commit, or abort.

    At most one epoch is open at a time.  Only the latest *committed*
    epoch (plus the synthetic epoch 0, the initial state) is retained as
    a rollback target, matching the slaves' pruning of local snapshots.
    """

    def __init__(self, cfg: CheckpointConfig):
        self.cfg = cfg
        self.margin = BARRIER_MARGIN
        self.next_epoch = 1
        self.open: CheckpointEpoch | None = None
        self.committed: CheckpointEpoch | None = None
        self.epoch0: CheckpointEpoch | None = None
        self.last_activity = 0.0
        # Lifetime counters (mirrored into ckpt.* metrics by the master).
        self.epochs_opened = 0
        self.epochs_committed = 0
        self.epochs_aborted = 0
        self.barrier_misses = 0

    # -- epoch lifecycle -------------------------------------------------

    def due_at(self) -> float | None:
        """When the next epoch falls due (``None`` while one is open)."""
        if self.open is not None:
            return None
        return self.last_activity + self.cfg.interval

    def due(self, now: float) -> bool:
        """Is it time to initiate a new epoch?"""
        due = self.due_at()
        return due is not None and now >= due

    def open_epoch(
        self,
        now: float,
        barrier: int,
        members: Sequence[int],
        cut: Mapping[int, Sequence[int]],
        boundaries: Sequence[int] | None,
        next_move_id: int,
        buddies: Mapping[int, int] | None = None,
    ) -> CheckpointEpoch:
        if self.open is not None:
            raise PartitionError("checkpoint epoch already open")
        epoch = CheckpointEpoch(
            epoch=self.next_epoch,
            barrier=barrier,
            opened_at=now,
            members=tuple(sorted(members)),
            cut={p: tuple(int(u) for u in units) for p, units in cut.items()},
            boundaries=None if boundaries is None else tuple(boundaries),
            next_move_id=next_move_id,
            placement=self.cfg.placement,
            buddies=dict(buddies or {}),
        )
        self.next_epoch += 1
        self.open = epoch
        self.epochs_opened += 1
        self.last_activity = now
        return epoch

    def deposit(self, pid: int, snapshot: SlaveSnapshot, now: float) -> bool:
        """Record a member's snapshot (or manifest); True on commit."""
        epoch = self.open
        if epoch is None or snapshot.epoch != epoch.epoch:
            return False  # late deposit for an aborted epoch: ignore
        if pid not in epoch.members:
            return False
        epoch.snapshots[pid] = snapshot
        if len(epoch.snapshots) == len(epoch.members):
            epoch.committed_at = now
            self.committed = epoch
            self.open = None
            self.epochs_committed += 1
            self.last_activity = now
            return True
        return False

    def abort(self, now: float, missed: bool = False) -> CheckpointEpoch | None:
        """Drop the open epoch (barrier miss, done report, or death)."""
        epoch = self.open
        if epoch is None:
            return None
        self.open = None
        self.epochs_aborted += 1
        self.last_activity = now
        if missed:
            self.barrier_misses += 1
            self.margin += 1  # place the next barrier further out
        return epoch

    def rollback_target(self) -> CheckpointEpoch:
        """The epoch survivors roll back to: latest committed, else 0."""
        if self.committed is not None:
            return self.committed
        if self.epoch0 is None:
            raise PartitionError("checkpoint coordinator has no epoch 0")
        return self.epoch0


# -- rollback re-partitioning ------------------------------------------


def pipeline_repartition(
    boundaries: Sequence[int], dead: Sequence[int]
) -> tuple[list[int], dict[int, list[tuple[int, list[int]]]]]:
    """Split dead slaves' blocks between adjacent live neighbours.

    ``boundaries`` is the epoch cut's block partition (slave ``s`` owned
    ``[boundaries[s], boundaries[s+1])``).  Returns the new boundaries
    and ``grants[receiver] = [(dead_pid, units), ...]`` listing which
    dead slave's snapshot each granted unit must be extracted from.

    Raises :class:`~repro.errors.PartitionError` when no live slave
    remains to adopt a dead run (the caller surfaces this as
    ``SlaveLostError``).
    """
    n = len(boundaries) - 1
    dead_set = {int(d) for d in dead}
    counts = [boundaries[s + 1] - boundaries[s] for s in range(n)]
    grants: dict[int, list[tuple[int, list[int]]]] = {}
    i = 0
    while i < n:
        if i not in dead_set:
            i += 1
            continue
        j = i
        while j + 1 < n and (j + 1) in dead_set:
            j += 1
        a, b = boundaries[i], boundaries[j + 1]
        left = i - 1 if i > 0 else None
        right = j + 1 if j + 1 < n else None
        if left is None and right is None:
            raise PartitionError(
                "no surviving slave can adopt the dead pipeline run "
                f"{sorted(dead_set)}"
            )
        if b > a:
            if left is not None and right is not None:
                mid = a + (b - a) // 2
            elif left is not None:
                mid = b
            else:
                mid = a
            for d in range(i, j + 1):
                da, db = boundaries[d], boundaries[d + 1]
                lpart = [u for u in range(da, db) if u < mid]
                rpart = [u for u in range(da, db) if u >= mid]
                if lpart and left is not None:
                    grants.setdefault(left, []).append((d, lpart))
                if rpart and right is not None:
                    grants.setdefault(right, []).append((d, rpart))
            if left is not None:
                counts[left] += mid - a
            if right is not None:
                counts[right] += b - mid
        for d in range(i, j + 1):
            counts[d] = 0
        i = j + 1
    new_boundaries = [int(boundaries[0])]
    for c in counts:
        new_boundaries.append(new_boundaries[-1] + c)
    return new_boundaries, grants


def reduction_repartition(
    cut: Mapping[int, Sequence[int]],
    live: Sequence[int],
    dead: Sequence[int],
    weights: Mapping[int, float],
) -> tuple[dict[int, list[int]], dict[int, list[tuple[int, list[int]]]]]:
    """Apportion dead slaves' units over survivors by measured rate.

    Returns ``(new_owned, grants)``: the complete post-rollback
    ownership map (live slaves keep their cut units plus adoptions;
    dead slaves own nothing) and the per-receiver grant source list.
    """
    # Imported lazily: repro.runtime's package init pulls in the master,
    # which imports this module — a module-level import here would make
    # ``import repro.ckpt`` order-dependent.
    from ..runtime.partition import proportional_counts

    live_list = sorted(int(p) for p in live)
    if not live_list:
        raise PartitionError("no surviving slave can adopt dead units")
    pool: list[tuple[int, int]] = []  # (dead pid, unit), sorted by unit
    for d in sorted(int(p) for p in dead):
        for u in cut.get(d, ()):
            pool.append((d, int(u)))
    pool.sort(key=lambda du: du[1])
    shares = proportional_counts(
        len(pool), [max(weights.get(p, 0.0), 0.0) for p in live_list]
    )
    new_owned: dict[int, list[int]] = {
        p: [int(u) for u in cut.get(p, ())] for p in live_list
    }
    grants: dict[int, list[tuple[int, list[int]]]] = {}
    idx = 0
    for p, share in zip(live_list, shares):
        chunk = pool[idx : idx + share]
        idx += share
        if not chunk:
            continue
        by_dead: dict[int, list[int]] = {}
        for d, u in chunk:
            by_dead.setdefault(d, []).append(u)
            new_owned[p].append(u)
        new_owned[p].sort()
        grants[p] = sorted(by_dead.items())
    return new_owned, grants
