"""Message tags of the robust strategy control planes.

Tags are prefixed (``st.`` for stealing, ``rb.`` for robust
self-scheduling) so metrics classify them separately (see
``repro.sim.machine._tag_class``) and ``repro check --steal`` can derive
the tag families from these classes exactly as it does for the central
runtime's :class:`repro.runtime.protocol.Tags` and the hierarchy's
:class:`repro.scale.protocol.ScaleTags`.
"""

from __future__ import annotations

__all__ = ["RobustTags", "StealTags"]


class StealTags:
    """Tag constants for the decentralized work-stealing protocol.

    Custody rule: units travel worker to worker (``WORK``), and the
    coordinator's ledger holds every unit nobody has reported done.  The
    coordinator hands out copies of ledger units, never the only copy,
    so a late or lost coordinator message cannot lose a unit, and a unit
    survives one holder crash.

    Response completeness: every ``STEAL`` a live victim receives is
    answered by exactly one ``WORK`` or ``DENY``.  A thief that stops
    waiting (victim silent past the steal timeout) sends ``ABORT`` so a
    reordered late ``STEAL`` is denied rather than served — but a thief
    must still *accept* a late ``WORK`` whose request it aborted,
    otherwise the shipped units would be lost in flight.
    """

    # Thief -> victim: {"thief", "req"} — request roughly half the
    # victim's pending units.
    STEAL = "st.steal"
    # Victim -> thief: {"req", "units", "data"?} — the stolen units (and
    # their packed state when numerics execute).  Coordinator -> worker:
    # {"units", "data"?} — copies of ledger units for an asking worker.
    WORK = "st.work"
    # Victim -> thief: {"req"} — nothing to spare (or the request was
    # aborted before it arrived).
    DENY = "st.deny"
    # Thief -> victim: {"req"} — the thief timed out on this request;
    # if it has not been served yet, deny it instead of serving it.
    ABORT = "st.abort"
    # Worker -> coordinator: {"units", "data"?, "ask"} — the units
    # finished since the last report (and their state when numerics
    # execute); ``ask`` is set when a steal round found nothing.
    REPORT = "st.report"
    # Coordinator -> worker: every unit is reported; stop.
    TERM = "st.term"


class RobustTags:
    """Tag constants for rDLB-style robust self-scheduling.

    The master owns the chunk queue and blocks on ``REQUEST``; a
    worker's request carries the previous chunk's results.  The master
    answers a request with one ``WORK`` when it has a chunk to give — a
    fresh one, or once the queue is dry a copy of the oldest outstanding
    chunk (bounded duplication, first result wins) — and otherwise not
    at all: the requester waits.  Once every unit's result is in, every
    worker gets one stop.  No failure detector, no rates, no movement
    decisions: resilience comes from reissuing work.
    """

    # Worker -> master: {"chunk", "units", "data"?} report of the
    # previous chunk (None on the first request).
    REQUEST = "rb.request"
    # Master -> worker: {"chunk", "units", "data"?}; units == () stops
    # the worker.
    WORK = "rb.work"
