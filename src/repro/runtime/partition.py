"""Iteration partitions and work-movement bookkeeping.

Two partition kinds mirror the paper's two movement regimes (Figure 1):

- :class:`BlockPartition` — contiguous ranges per slave; movement only
  between logically adjacent slaves so the block distribution (and hence
  minimal boundary communication) is preserved.  Used when the
  distributed loop has loop-carried dependences (SOR).
- :class:`IndexPartition` — arbitrary iteration sets per slave, tracked
  with index arrays (the run-time indirection of Section 4.5).  Movement
  may pair any two slaves (MM, LU).

The balancer decides on unit counts alone: :func:`proportional_counts`
implements the paper's proportional allocation (work assigned to each
slave proportional to its measured computation rate), and
:func:`surplus_moves` / :func:`adjacent_moves` pair givers with takers as
sized moves ``(src, dst, k)``.  Only a decision that moves work is cut
into explicit :class:`Transfer` lists (``cut`` or :func:`cut_units`), so
master and slaves agree exactly on which unit ids move where.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from operator import sub
from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import PartitionError

__all__ = [
    "Move",
    "Transfer",
    "proportional_counts",
    "surplus_moves",
    "adjacent_moves",
    "cut_units",
    "BlockPartition",
    "IndexPartition",
]

#: A sized move: slave ``src`` gives ``k`` units to slave ``dst``.
Move = tuple[int, int, int]


@dataclass(frozen=True)
class Transfer:
    """Move ``units`` (global iteration ids) from slave ``src`` to ``dst``."""

    src: int
    dst: int
    units: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise PartitionError("transfer to self")
        if not self.units:
            raise PartitionError("empty transfer")

    @property
    def count(self) -> int:
        return len(self.units)


def proportional_counts(
    total: int, weights: Sequence[float], minimum: int = 0
) -> list[int]:
    """Apportion ``total`` units proportionally to ``weights``.

    Largest-remainder rounding; every slave receives at least ``minimum``
    units when feasible (otherwise ``minimum`` is reduced to fit).
    """
    n = len(weights)
    if n == 0:
        raise PartitionError("no slaves")
    if total < 0:
        raise PartitionError(f"negative total: {total}")
    if min(weights) < 0:
        raise PartitionError(f"negative weight in {weights}")
    minimum = min(minimum, total // n)
    wsum = float(sum(weights))
    if wsum <= 0:
        weights = [1.0] * n
        wsum = float(n)
    spare = total - minimum * n
    shares = [spare * w / wsum for w in weights]
    counts = list(map(int, shares))
    leftover = spare - sum(counts)
    if leftover:
        # Assign leftovers to the largest remainders (ties: lowest index,
        # since a reversed sort is still stable).
        remainders = list(map(sub, shares, counts))
        order = sorted(range(n), key=remainders.__getitem__, reverse=True)
        for i in order[:leftover]:
            counts[i] += 1
    result = [c + minimum for c in counts] if minimum else counts
    assert sum(result) == total
    return result


def _check_targets(counts: Sequence[int], target_counts: Sequence[int]) -> None:
    if len(target_counts) != len(counts):
        raise PartitionError("target counts length mismatch")
    if sum(target_counts) != sum(counts):
        raise PartitionError(
            f"target counts sum {sum(target_counts)} != units {sum(counts)}"
        )


def surplus_moves(counts: Sequence[int], target_counts: Sequence[int]) -> list[Move]:
    """Direct moves from surplus to deficit slaves (unrestricted
    movement): donors in ascending order each fill the lowest deficit
    slaves still short, so any pair may trade."""
    _check_targets(counts, target_counts)
    surplus = list(map(sub, counts, target_counts))
    takers = deque(p for p, s in enumerate(surplus) if s < 0)
    moves: list[Move] = []
    for d, give in enumerate(surplus):
        while give > 0:
            t = takers[0]
            k = min(give, -surplus[t])
            moves.append((d, t, k))
            give -= k
            surplus[t] += k
            if surplus[t] == 0:
                takers.popleft()
    return moves


def adjacent_moves(counts: Sequence[int], target_counts: Sequence[int]) -> list[Move]:
    """Moves between neighbours toward ``target_counts`` in one
    balancing step (restricted movement, block partitions).

    Each boundary moves at most to the edge of the *sending* slave's
    current range, so every move is feasible immediately; a large shift
    across several slaves completes over several balancing periods, with
    intermediate slaves forwarding load (paper Figure 1b).  A move
    ``(i - 1, i, k)`` gives slave ``i - 1``'s top ``k`` units, and
    ``(i, i - 1, k)`` slave ``i``'s bottom ``k``.
    """
    _check_targets(counts, target_counts)
    n = len(counts)
    # Boundaries as prefix sums: slave s holds [old[s], old[s + 1]).
    old = list(accumulate(counts, initial=0))
    desired = list(accumulate(target_counts, initial=0))
    new = list(old)
    for i in range(1, n):
        # Boundary i separates slave i-1 and slave i.  Clamp so that
        # (a) the chunk moved comes out of the sender's *old* range,
        # (b) boundaries stay monotone, and (c) every slave keeps at
        # least one unit (a pipeline slave must retain a column to
        # anchor its halo exchange).
        lo_limit = max(old[i - 1], new[i - 1] + 1)
        hi_limit = min(old[i + 1] - 1, old[n] - (n - i))
        if hi_limit >= lo_limit:
            new[i] = max(lo_limit, min(hi_limit, desired[i]))
    # A slave executes its sends before its receives, so it must retain
    # at least one *currently owned* unit even when the round both takes
    # from and gives to it; cap each slave's gives.
    for s in range(n):
        give_bottom = max(0, new[s] - old[s])
        give_top = max(0, old[s + 1] - new[s + 1])
        excess = give_bottom + give_top - (counts[s] - 1)
        if excess > 0:
            shrink_top = min(excess, give_top)
            new[s + 1] += shrink_top
            excess -= shrink_top
            if excess > 0:
                new[s] -= min(excess, give_bottom)
    moves: list[Move] = []
    for i in range(1, n):
        if new[i] < old[i]:
            moves.append((i - 1, i, old[i] - new[i]))
        elif new[i] > old[i]:
            moves.append((i, i - 1, new[i] - old[i]))
    return moves


def cut_units(
    units_of: Callable[[int], Iterable[int]], moves: Sequence[Move]
) -> list[Transfer]:
    """The unit ids of ``moves``, move by move: each donor gives the
    highest of ``units_of(donor)`` it has left (those stay active
    longest, so their data keeps paying off, Section 4.7).  Reads only
    the donors' units."""
    pools: dict[int, list[int]] = {}
    transfers: list[Transfer] = []
    for src, dst, k in moves:
        pool = pools.get(src)
        if pool is None:
            pool = pools[src] = sorted(units_of(src))
        transfers.append(Transfer(src=src, dst=dst, units=tuple(pool[-k:])))
        del pool[-k:]
    return transfers


class BlockPartition:
    """Contiguous unit ranges delimited by boundaries.

    ``boundaries`` has ``n_slaves + 1`` entries; slave ``s`` owns
    ``[boundaries[s], boundaries[s+1])``.
    """

    def __init__(self, boundaries: Sequence[int]):
        b = list(boundaries)
        if len(b) < 2:
            raise PartitionError("need at least one slave")
        if any(y < x for x, y in zip(b, b[1:])):
            raise PartitionError(f"boundaries not monotone: {b}")
        self.boundaries = b
        self._counts: list[int] | None = None

    @classmethod
    def even(cls, n_units: int, n_slaves: int, lo: int = 0) -> "BlockPartition":
        """Initial even block distribution over ``[lo, lo + n_units)``."""
        if n_slaves < 1 or n_units < 1:
            raise PartitionError("need >= 1 slave and >= 1 unit")
        counts = proportional_counts(n_units, [1.0] * n_slaves, minimum=1)
        return cls.from_counts(counts, lo=lo)

    @classmethod
    def from_counts(cls, counts: Sequence[int], lo: int = 0) -> "BlockPartition":
        b = [lo]
        for c in counts:
            if c < 0:
                raise PartitionError(f"negative count {c}")
            b.append(b[-1] + c)
        return cls(b)

    @property
    def n_slaves(self) -> int:
        return len(self.boundaries) - 1

    @property
    def n_units(self) -> int:
        return self.boundaries[-1] - self.boundaries[0]

    def counts(self) -> list[int]:
        """Units per slave, computed once: a partition is replaced, never
        edited, so callers share the list and must not mutate it."""
        if self._counts is None:
            b = self.boundaries
            self._counts = [b[s + 1] - b[s] for s in range(self.n_slaves)]
        return self._counts

    def owned_range(self, s: int) -> tuple[int, int]:
        return self.boundaries[s], self.boundaries[s + 1]

    def owned(self, s: int) -> np.ndarray:
        lo, hi = self.owned_range(s)
        return np.arange(lo, hi)

    def units(self, s: int) -> Sequence[int]:
        """Slave ``s``'s unit ids in ascending order, without a copy."""
        return range(*self.owned_range(s))

    def owner_of(self, unit: int) -> int:
        b = self.boundaries
        if not b[0] <= unit < b[-1]:
            raise PartitionError(f"unit {unit} outside domain [{b[0]}, {b[-1]})")
        return int(np.searchsorted(np.asarray(b), unit, side="right")) - 1

    def cut(self, moves: Sequence[Move]) -> list[Transfer]:
        """The unit ids of :func:`adjacent_moves`' ``moves``: the chunk
        at the sender's edge facing the receiver."""
        b = self.boundaries
        transfers = []
        for src, dst, k in moves:
            if dst == src + 1:
                units = range(b[src + 1] - k, b[src + 1])
            else:
                units = range(b[src], b[src] + k)
            transfers.append(Transfer(src=src, dst=dst, units=tuple(units)))
        return transfers

    def apply(self, transfers: Sequence[Transfer]) -> "BlockPartition":
        """New partition after applying adjacent transfers."""
        new = list(self.boundaries)
        for t in transfers:
            if abs(t.src - t.dst) != 1:
                raise PartitionError(f"non-adjacent transfer {t.src}->{t.dst}")
            units = sorted(t.units)
            if t.dst == t.src + 1:
                # Sender gives its top chunk: boundary between src and dst
                # moves down.
                if units[-1] != new[t.src + 1] - 1:
                    raise PartitionError(f"transfer {t} not at boundary")
                new[t.src + 1] -= len(units)
            else:
                # Sender gives its bottom chunk: boundary moves up.
                if units[0] != new[t.src]:
                    raise PartitionError(f"transfer {t} not at boundary")
                new[t.src] += len(units)
        return BlockPartition(new)


class IndexPartition:
    """Arbitrary per-slave unit sets with index arrays (Section 4.5)."""

    def __init__(self, owned: Sequence[Sequence[int]]):
        self._owned: list[list[int]] = [sorted(int(u) for u in o) for o in owned]
        self._counts: list[int] | None = None
        seen: set[int] = set()
        for o in self._owned:
            for u in o:
                if u in seen:
                    raise PartitionError(f"unit {u} owned twice")
                seen.add(u)

    @classmethod
    def even(cls, n_units: int, n_slaves: int, lo: int = 0) -> "IndexPartition":
        counts = proportional_counts(n_units, [1.0] * n_slaves, minimum=1)
        owned = []
        start = lo
        for c in counts:
            owned.append(list(range(start, start + c)))
            start += c
        return cls(owned)

    @property
    def n_slaves(self) -> int:
        return len(self._owned)

    @property
    def n_units(self) -> int:
        return sum(len(o) for o in self._owned)

    def counts(self) -> list[int]:
        """Units per slave, computed once: a partition is replaced, never
        edited, so callers share the list and must not mutate it."""
        if self._counts is None:
            self._counts = [len(o) for o in self._owned]
        return self._counts

    def owned(self, s: int) -> np.ndarray:
        return np.asarray(self._owned[s], dtype=int)

    def units(self, s: int) -> Sequence[int]:
        """Slave ``s``'s unit ids in ascending order: the partition's own
        list, which nothing mutates (partitions are replaced, not edited)."""
        return self._owned[s]

    def owner_of(self, unit: int) -> int:
        for s, o in enumerate(self._owned):
            if unit in o:
                return s
        raise PartitionError(f"unit {unit} unowned")

    def cut(self, moves: Sequence[Move]) -> list[Transfer]:
        """The unit ids of ``moves``: each donor gives its highest ids."""
        return cut_units(self.units, moves)

    def apply(self, transfers: Sequence[Transfer]) -> "IndexPartition":
        """New partition after ``transfers``.

        Only the senders' and receivers' lists are copied and edited (kept
        sorted by bisection); every other slave's list is shared with this
        partition, so the cost follows the slaves involved, not the run.
        """
        owned = list(self._owned)
        for t in transfers:
            src = owned[t.src] = list(owned[t.src])
            dst = owned[t.dst] = list(owned[t.dst])
            for u in t.units:
                u = int(u)
                i = bisect_left(src, u)
                if i == len(src) or src[i] != u:
                    raise PartitionError(f"slave {t.src} does not own unit {u}")
                del src[i]
                j = bisect_left(dst, u)
                if j < len(dst) and dst[j] == u:
                    raise PartitionError(f"unit {u} owned twice")
                dst.insert(j, u)
        new = IndexPartition.__new__(IndexPartition)
        new._owned = owned  # still sorted and disjoint: no re-check
        new._counts = None
        return new
