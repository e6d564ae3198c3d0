"""Per-task CPU accounting — the simulator's ``getrusage`` equivalent.

The paper evaluates load balancing with the resource-usage efficiency

    efficiency = T_seq / sum_p (T_elapsed - T_competing(p))

where ``T_competing`` is the CPU time consumed by competing tasks on each
slave processor (measured with ``getrusage`` on the real system).  The
simulator computes both terms exactly.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["TaskUsage", "RusageReport"]


@dataclass(frozen=True)
class TaskUsage:
    """CPU accounting for one processor over a run."""

    pid: int
    elapsed: float
    app_cpu: float
    competing_cpu: float

    @property
    def available_cpu(self) -> float:
        """Elapsed time minus competing CPU — the denominator contribution
        in the paper's efficiency formula."""
        return max(0.0, self.elapsed - self.competing_cpu)

    @property
    def idle_cpu(self) -> float:
        """Time neither the app nor competitors used (waiting, comm)."""
        return max(0.0, self.elapsed - self.app_cpu - self.competing_cpu)


class RusageReport:
    """Accounting for a whole cluster at ``t_end``.

    Stored as one array per column (pid, elapsed, app and competing CPU)
    rather than one :class:`TaskUsage` per processor: a P=256 run keeps
    about 8 KB instead of 45.  ``usages`` and :meth:`usage_for` rebuild
    :class:`TaskUsage` rows on demand.
    """

    __slots__ = ("t_end", "_pid", "_elapsed", "_app_cpu", "_competing_cpu")

    def __init__(self, usages: Iterable[TaskUsage], t_end: float):
        self.t_end = t_end
        self._pid = array("q")
        self._elapsed = array("d")
        self._app_cpu = array("d")
        self._competing_cpu = array("d")
        for u in usages:
            self._pid.append(u.pid)
            self._elapsed.append(u.elapsed)
            self._app_cpu.append(u.app_cpu)
            self._competing_cpu.append(u.competing_cpu)

    def _usage(self, row: int) -> TaskUsage:
        return TaskUsage(
            pid=self._pid[row],
            elapsed=self._elapsed[row],
            app_cpu=self._app_cpu[row],
            competing_cpu=self._competing_cpu[row],
        )

    @property
    def usages(self) -> tuple[TaskUsage, ...]:
        """One :class:`TaskUsage` per processor, in stored order."""
        return tuple(self._usage(row) for row in range(len(self._pid)))

    def usage_for(self, pid: int) -> TaskUsage:
        # Cluster.rusage stores pid p in row p; any other layout searches.
        if 0 <= pid < len(self._pid) and self._pid[pid] == pid:
            return self._usage(pid)
        try:
            return self._usage(self._pid.index(pid))
        except ValueError:
            raise KeyError(pid) from None

    def available_cpu_total(self, pids: Sequence[int]) -> float:
        """Sum of available CPU over the given processors."""
        return sum(self.usage_for(p).available_cpu for p in pids)

    def efficiency(self, sequential_time: float, pids: Sequence[int]) -> float:
        """The paper's efficiency metric over the slave processors."""
        avail = self.available_cpu_total(pids)
        if avail <= 0:
            return 0.0
        return sequential_time / avail

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RusageReport):
            return NotImplemented
        return self.t_end == other.t_end and self.usages == other.usages

    def __repr__(self) -> str:
        return f"RusageReport(usages={list(self.usages)!r}, t_end={self.t_end!r})"
