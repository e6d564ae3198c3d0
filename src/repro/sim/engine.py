"""Deterministic discrete-event engine.

A minimal heap-based event loop.  Events scheduled for the same virtual
time fire in scheduling order (FIFO), which makes whole simulations
deterministic and therefore testable.

The event loop is the hottest code in the repository (every message,
compute segment and timer passes through it), so it is written for
throughput: heap entries are ``(t, seq, fn, args)`` tuples — callbacks
take their arguments through the entry instead of a per-event closure —
and the drain loop pops all events sharing one timestamp in an inner
batch so the clock and the ``until`` bound are touched once per
distinct time, not once per event.  Ordering is unchanged: a callback
that schedules new work at the current time appends behind the batch by
sequence number, exactly as the one-at-a-time loop would.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, Callable

from ..errors import SimulationError
from ..obs import NULL_RECORDER, Recorder

__all__ = ["Engine"]


class Engine:
    """Event queue with a virtual clock.

    The engine knows nothing about processors or tasks; it only orders
    callbacks in virtual time.  Higher layers (the :mod:`repro.sim.machine`
    module) build message passing and CPU scheduling on top of it.

    When given an enabled :class:`~repro.obs.Recorder`, each ``run``
    call emits an ``engine/run`` span and adds to the ``engine.events``
    counter once the loop exits.  Either way ``events_processed`` counts
    every event fired.
    """

    __slots__ = ("_now", "_seq", "_heap", "_running", "_obs", "events_processed")

    def __init__(self, recorder: Recorder | None = None) -> None:
        self._now = 0.0
        self._seq = 0
        self._heap: list[tuple[float, int, Callable[..., Any], tuple[Any, ...]]] = []
        self._running = False
        self._obs = recorder if recorder is not None else NULL_RECORDER
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def call_at(self, t: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run at virtual time ``t`` (>= now)."""
        now = self._now
        if t < now:
            if t != t:  # NaN: the only float for which this holds
                raise SimulationError("cannot schedule event at NaN time")
            if t < now - 1e-12:
                raise SimulationError(
                    f"cannot schedule event in the past: t={t} < now={now}"
                )
            t = now
        elif t != t:
            raise SimulationError("cannot schedule event at NaN time")
        heappush(self._heap, (t, self._seq, fn, args))
        self._seq += 1

    def call_after(self, dt: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``dt`` seconds from now."""
        if dt < 0:
            raise SimulationError(f"negative delay: {dt}")
        self.call_at(self._now + dt, fn, *args)

    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._heap)

    def run(self, until: float = math.inf) -> float:
        """Drain the event queue up to virtual time ``until``.

        Returns the final virtual time.  Re-entrant calls are rejected.
        """
        if self._running:
            raise SimulationError("engine.run() is not re-entrant")
        self._running = True
        heap = self._heap
        t_start = self._now
        fired = 0
        try:
            while heap:
                t = heap[0][0]
                if t > until:
                    break
                self._now = t
                # Batch-pop everything at this timestamp; same-time
                # events a callback schedules join the batch in seq
                # order, preserving the one-at-a-time FIFO semantics.
                while heap and heap[0][0] == t:
                    _, _, fn, args = heappop(heap)
                    fired += 1
                    fn(*args)
            if until > self._now and not math.isinf(until):
                self._now = until
            return self._now
        finally:
            self._running = False
            self.events_processed += fired
            obs = self._obs
            if obs.enabled:
                obs.metrics.counter("engine.events").inc(fired)
                obs.emit_span(
                    "engine",
                    "run",
                    t_start,
                    self._now,
                    value=float(fired),
                    meta={"pending": len(heap)},
                )
