"""Workstation CPU model with round-robin quantum scheduling.

Each processor hosts exactly one *application* task (a slave or the
master) plus ``K(t)`` CPU-bound competing tasks given by a
:class:`~repro.sim.load.LoadGenerator`.  The OS schedules all runnable
tasks round-robin with time quantum ``q``: within each cycle of length
``(K+1)*q`` the application runs for one quantum.  This staircase is
modelled analytically (no per-quantum events), so simulations stay cheap
while reproducing the paper's quantum-induced measurement noise: a burst
of computation shorter than a cycle observes a rate of either full speed
or zero depending on where it lands in the cycle (Section 4.3).

The model assumes competing tasks are pure CPU hogs: whenever ``K >= 1``
the CPU is fully busy, and every second not consumed by the application
is consumed by competitors.  That assumption makes exact ``getrusage``
style accounting possible (see :mod:`repro.sim.rusage`).
"""

from __future__ import annotations

import math

from ..config import ProcessorSpec
from ..errors import SimulationError
from ..obs import NULL_RECORDER, Recorder
from .load import LoadGenerator, NoLoad

__all__ = ["Processor"]

_EPS = 1e-12


def _slot_cpu(u: float, q: float, cycle: float) -> float:
    """Application CPU accrued from local time 0 to ``u``.

    The application's slot is ``[0, q)`` of every ``cycle``-long period.
    """
    if u <= 0:
        return 0.0
    m, r = divmod(u, cycle)
    return m * q + min(r, q)


def _slot_advance(u0: float, cpu: float, q: float, cycle: float) -> float:
    """Earliest local time ``u1 >= u0`` at which the application has
    accrued ``cpu`` more CPU seconds than at ``u0``."""
    if cpu <= 0:
        return u0
    target = _slot_cpu(u0, q, cycle) + cpu
    m = math.floor(target / q + _EPS)
    rem = target - m * q
    if rem > _EPS * max(1.0, target):
        u1 = m * cycle + rem
    else:
        u1 = (m - 1) * cycle + q
    return max(u1, u0)


class Processor:
    """One workstation: speed, quantum scheduling, competing load, accounting."""

    __slots__ = (
        "pid",
        "spec",
        "load",
        "_obs",
        "_observe",
        "_unloaded",
        "_speed",
        "_busy_until",
        "app_cpu_total",
        "app_cpu_while_loaded",
    )

    def __init__(
        self,
        pid: int,
        spec: ProcessorSpec,
        load: LoadGenerator | None = None,
        recorder: Recorder | None = None,
    ):
        self.pid = pid
        self.spec = spec
        self.load = load if load is not None else NoLoad()
        self._obs = recorder if recorder is not None else NULL_RECORDER
        # Enabled-flag cached as a plain attribute: run_cpu is the
        # simulator's hottest call site and a bool load keeps the
        # disabled-observability cost at one branch.
        self._observe = self._obs.enabled
        # A generator that reports zero competing tasks forever (NoLoad,
        # ConstantLoad(k=0)) lets run_cpu skip the segment walk entirely:
        # with k == 0 the walk reduces to ``finish = t0 + cpu``.
        self._unloaded = (
            self.load.k_at(0.0) == 0 and math.isinf(self.load.next_change(0.0))
        )
        self._speed = spec.speed  # hot-path binding for run_ops callers
        self._busy_until = 0.0
        # Accounting (exact, accumulated as computation is performed).
        self.app_cpu_total = 0.0
        self.app_cpu_while_loaded = 0.0

    # ------------------------------------------------------------------
    # Pure queries (no accounting side effects)
    # ------------------------------------------------------------------

    def app_cpu_between(self, t0: float, t1: float) -> float:
        """CPU seconds the app task *would* accrue over ``[t0, t1]`` if it
        were runnable throughout."""
        if t1 < t0:
            raise SimulationError(f"interval reversed: [{t0}, {t1}]")
        total = 0.0
        t = t0
        while t < t1 - _EPS:
            seg_end = min(self.load.next_change(t), t1)
            k = self.load.k_at(t)
            total += self._segment_cpu(t, seg_end, k, self.load.segment_start(t))
            t = seg_end
        return total

    def _u(self, t: float, anchor: float) -> float:
        """Local cycle coordinate of absolute time ``t`` for a segment
        anchored at ``anchor``: the app's slot is ``[0, q)`` of every
        cycle, offset by the processor's phase."""
        return (t - anchor) + self.spec.phase

    def _segment_cpu(self, s0: float, s1: float, k: int, anchor: float) -> float:
        """App CPU within ``[s0, s1)`` of a constant-load segment that
        began at ``anchor`` (absolute-time round-robin anchoring: where
        the cycle stands does NOT depend on when the app asks for CPU)."""
        if k <= 0:
            return s1 - s0
        if self.spec.scheduler == "fair":
            return (s1 - s0) / (k + 1)
        q = self.spec.quantum
        cycle = (k + 1) * q
        u0 = self._u(s0, anchor)
        u1 = self._u(s1, anchor)
        return _slot_cpu(u1, q, cycle) - _slot_cpu(u0, q, cycle)

    def _segment_finish(self, s0: float, cpu: float, k: int, anchor: float) -> float:
        """Absolute time at which ``cpu`` app-CPU-seconds complete when
        computation starts at ``s0`` inside a segment anchored at
        ``anchor`` (ignores the segment end; caller bounds the result)."""
        if k <= 0:
            return s0 + cpu
        if self.spec.scheduler == "fair":
            return s0 + cpu * (k + 1)
        q = self.spec.quantum
        cycle = (k + 1) * q
        u0 = self._u(s0, anchor)
        u1 = _slot_advance(u0, cpu, q, cycle)
        return s0 + (u1 - u0)

    # ------------------------------------------------------------------
    # Computation with accounting
    # ------------------------------------------------------------------

    def run_ops(self, t0: float, ops: float) -> float:
        """Execute ``ops`` application operations starting at ``t0``.

        Returns the virtual finish time, accounting for competing load and
        quantum scheduling.  Also accumulates CPU usage for the rusage
        report.
        """
        return self.run_cpu(t0, ops / self.spec.speed)

    def run_cpu(self, t0: float, cpu: float) -> float:
        """Execute ``cpu`` seconds of app CPU starting at ``t0``."""
        if cpu < 0:
            raise SimulationError(f"negative cpu request: {cpu}")
        if t0 < self._busy_until - 1e-9:
            raise SimulationError(
                f"processor {self.pid}: overlapping compute requests "
                f"(t0={t0} < busy_until={self._busy_until})"
            )
        if self._unloaded:
            # Dedicated processor: identical arithmetic to one k=0 pass
            # of the segment walk below, without the generator calls.
            if cpu > _EPS * (cpu if cpu > 1.0 else 1.0):
                self.app_cpu_total += cpu
                t = t0 + cpu
            else:
                t = t0
            self._busy_until = t
            if self._observe and cpu > 0:
                self._obs.emit_span(
                    "cpu", "compute", t0, t, pid=self.pid, value=cpu
                )
                self._obs.metrics.counter("cpu.bursts").inc()
                self._obs.metrics.histogram("cpu.burst_s").observe(cpu)
            return t
        remaining = cpu
        t = t0
        # Walk constant-load segments.  The round-robin cycle is anchored
        # at each segment's absolute start time, so back-to-back short
        # compute requests see the scheduler rotation where it really is.
        while remaining > _EPS * max(1.0, cpu):
            seg_end = self.load.next_change(t)
            k = self.load.k_at(t)
            anchor = self.load.segment_start(t)
            finish = self._segment_finish(t, remaining, k, anchor)
            if finish <= seg_end + _EPS:
                got = remaining
                t_next = min(finish, seg_end)
                self._account(got, k)
                t = t_next
                remaining = 0.0
            else:
                got = self._segment_cpu(t, seg_end, k, anchor)
                self._account(got, k)
                remaining -= got
                t = seg_end
            if math.isinf(t):  # pragma: no cover - defensive
                raise SimulationError("computation never completes")
        self._busy_until = t
        if self._observe and cpu > 0:
            self._obs.emit_span(
                "cpu", "compute", t0, t, pid=self.pid, value=cpu
            )
            self._obs.metrics.counter("cpu.bursts").inc()
            self._obs.metrics.histogram("cpu.burst_s").observe(cpu)
        return t

    def _account(self, cpu: float, k: int) -> None:
        self.app_cpu_total += cpu
        if k >= 1:
            self.app_cpu_while_loaded += cpu

    # ------------------------------------------------------------------
    # Accounting queries
    # ------------------------------------------------------------------

    def competing_cpu(self, t_end: float, t_start: float = 0.0) -> float:
        """Total CPU consumed by competing tasks over ``[t_start, t_end]``.

        Exact under the CPU-hog assumption: every loaded second not spent
        on the app goes to competitors.  Only valid for the full run
        window that accounting covered (``t_start`` defaults to 0).
        """
        busy = self.load.competing_busy_time(t_start, t_end)
        return max(0.0, busy - self.app_cpu_while_loaded)
