"""Iteration partitions and work-movement bookkeeping.

Two partition kinds mirror the paper's two movement regimes (Figure 1):

- :class:`BlockPartition` — contiguous ranges per slave; movement only
  between logically adjacent slaves so the block distribution (and hence
  minimal boundary communication) is preserved.  Used when the
  distributed loop has loop-carried dependences (SOR).
- :class:`IndexPartition` — arbitrary iteration sets per slave, tracked
  with index arrays (the run-time indirection of Section 4.5).  Movement
  may pair any two slaves (MM, LU).

Both produce explicit :class:`Transfer` lists so master and slaves agree
exactly on which unit ids move where.  :func:`proportional_counts`
implements the paper's proportional allocation (work assigned to each
slave proportional to its measured computation rate).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import sub
from typing import Callable, Sequence

import numpy as np

from ..errors import PartitionError

__all__ = [
    "Transfer",
    "proportional_counts",
    "transfers_from_sets",
    "BlockPartition",
    "IndexPartition",
]


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


def transfers_from_sets(
    remaining_by_pid: dict[int, Sequence[int]],
    target_counts: Sequence[int],
) -> list[Transfer]:
    """Direct transfers computed from explicit remaining-work sets.

    Used for independent-iteration shapes near the end of a run, where
    ownership counts no longer reflect remaining work: slaves report the
    ids of units still carrying work, and donors give their
    highest-numbered remaining units to deficit slaves.
    """
    n = len(target_counts)
    cur = [len(remaining_by_pid.get(p, ())) for p in range(n)]
    if sum(target_counts) != sum(cur):
        raise PartitionError(
            f"target sum {sum(target_counts)} != remaining units {sum(cur)}"
        )
    surplus = [c - t for c, t in zip(cur, target_counts)]
    takers = [p for p in range(n) if surplus[p] < 0]
    transfers: list[Transfer] = []
    for d in range(n):
        if surplus[d] <= 0:
            continue
        pool = sorted(remaining_by_pid.get(d, ()))
        while surplus[d] > 0 and takers:
            t = takers[0]
            k = min(surplus[d], -surplus[t])
            units = tuple(pool[-k:])
            pool = pool[:-k]
            transfers.append(Transfer(src=d, dst=t, units=units))
            surplus[d] -= k
            surplus[t] += k
            if surplus[t] == 0:
                takers.pop(0)
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
        b = self.boundaries
        return [b[s + 1] - b[s] for s in range(self.n_slaves)]

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

    def transfers_toward(self, target_counts: Sequence[int]) -> list[Transfer]:
        """Adjacent-only transfers moving this partition toward
        ``target_counts`` in a single balancing step.

        Each boundary moves at most to the edge of the *sending* slave's
        current range, so every transfer is feasible immediately; a large
        shift across several slaves completes over several balancing
        periods, with intermediate slaves forwarding load (paper
        Figure 1b).
        """
        if len(target_counts) != self.n_slaves:
            raise PartitionError("target counts length mismatch")
        if sum(target_counts) != self.n_units:
            raise PartitionError(
                f"target counts sum {sum(target_counts)} != units {self.n_units}"
            )
        old = self.boundaries
        # Desired boundaries from target counts.
        desired = [old[0]]
        for c in target_counts:
            desired.append(desired[-1] + c)
        new = list(old)
        transfers: list[Transfer] = []
        for i in range(1, self.n_slaves):
            # Boundary i separates slave i-1 and slave i.  Clamp so that
            # (a) the chunk transferred comes out of the sender's *old*
            # range, (b) boundaries stay monotone, and (c) every slave
            # keeps at least one unit (a pipeline slave must retain a
            # column to anchor its halo exchange).
            lo_limit = max(old[i - 1], new[i - 1] + 1)
            hi_limit = min(old[i + 1] - 1, self.boundaries[-1] - (self.n_slaves - i))
            if hi_limit < lo_limit:
                new[i] = old[i]
            else:
                new[i] = max(lo_limit, min(hi_limit, desired[i]))
        # A slave executes its sends before its receives, so it must
        # retain at least one *currently owned* unit even when the round
        # both takes from and gives to it; cap each slave's gives.
        for s in range(self.n_slaves):
            old_count = old[s + 1] - old[s]
            give_bottom = max(0, new[s] - old[s])
            give_top = max(0, old[s + 1] - new[s + 1])
            excess = give_bottom + give_top - (old_count - 1)
            if excess > 0:
                shrink_top = min(excess, give_top)
                new[s + 1] += shrink_top
                excess -= shrink_top
                if excess > 0:
                    new[s] -= min(excess, give_bottom)
        transfers = []
        for i in range(1, self.n_slaves):
            if new[i] < old[i]:
                units = tuple(range(new[i], old[i]))
                transfers.append(Transfer(src=i - 1, dst=i, units=units))
            elif new[i] > old[i]:
                units = tuple(range(old[i], new[i]))
                transfers.append(Transfer(src=i, dst=i - 1, units=units))
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

    def counts(self, active: Callable[[int], bool] | None = None) -> list[int]:
        if active is None:
            return [len(o) for o in self._owned]
        return [sum(1 for u in o if active(u)) for o in self._owned]

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

    def transfers_toward(
        self,
        target_counts: Sequence[int],
        active: Callable[[int], bool] | None = None,
    ) -> list[Transfer]:
        """Direct transfers from surplus to deficit slaves.

        Only *active* units move (Section 4.7); targets refer to active
        counts.  Donors give their highest-numbered active units (those
        stay active longest, so their data keeps paying off).
        """
        if len(target_counts) != self.n_slaves:
            raise PartitionError("target counts length mismatch")
        return transfers_from_sets(
            {
                s: [u for u in o if active is None or active(u)]
                for s, o in enumerate(self._owned)
            },
            target_counts,
        )

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
        return new
