"""Happens-before replay checker (pass 5, ``RA5xx``).

The static passes prove the *plan* is consistent; this pass checks that
an actual *execution* kept writes to each element ordered.  Slaves emit
``access``-category span events for every batch of element writes
(compute strips, fronts, movement catch-ups); the simulator's ``net``
spans record every message (send time at the source, arrival time at the
destination).  Replaying both in time order with vector clocks gives the
happens-before relation of the run:

- a *send* snapshots everything its sender knew at send time;
- an *arrival* merges that snapshot into the receiver's knowledge;
- a *write* to an element by slave *p* is safe when *p* transitively
  knows (via some chain of messages) about the previous writer's access
  — otherwise nothing ordered the two writes and the run only looked
  correct because the simulator's global clock hid the race (``RA501``).

This is the dynamic dual of the communication checker: RA2xx says a
message *should* exist, RA501 says no message *did* order two touches.

A host that crashed (a ``fault``/``injected`` crash event) takes its
unpublished writes with it: an access of its that ends after its last
send was never seen by anyone, and whoever recovers those elements
rebuilds them from elsewhere, so such accesses are left out of the
replay.  Its published writes still count.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping

from ..obs import CounterEvent, Event, EventLog, SpanEvent
from .diagnostics import Diagnostic

__all__ = ["check_replay", "check_log_file"]


# Timeline entry kinds, in tie-break order at equal timestamps: an
# arrival is causally earliest (its send happened strictly before in sim
# time or is handled by the lazy-snapshot fallback), then sends, then
# the accesses that may depend on both.
_ARRIVE, _SEND, _ACCESS = 0, 1, 2


def _units_of(meta: Mapping[str, object]) -> list[int] | None:
    raw = meta.get("units")
    if not isinstance(raw, (list, tuple)):
        return None
    out: list[int] = []
    for u in raw:
        if isinstance(u, bool) or not isinstance(u, int):
            return None
        out.append(u)
    return out


def _sender(ev: SpanEvent) -> int:
    """The source of a ``net`` span (``ev.pid`` is its destination)."""
    src = ev.meta.get("src")
    return src if isinstance(src, int) and not isinstance(src, bool) else ev.pid


def _crash_horizons(events: list[Event]) -> dict[int, float]:
    """Each crashed pid's last send time (``-inf`` if it sent nothing):
    its writes that end later were never published."""
    horizon: dict[int, float] = {}
    for ev in events:
        if (
            isinstance(ev, CounterEvent)
            and ev.category == "fault"
            and ev.name == "injected"
        ):
            kinds = ev.meta.get("kinds")
            if isinstance(kinds, (list, tuple)) and "crash" in kinds:
                horizon[ev.pid] = float("-inf")
    for ev in events:
        if isinstance(ev, SpanEvent) and ev.category == "net":
            src = _sender(ev)
            if src in horizon:
                horizon[src] = max(horizon[src], ev.t_start)
    return horizon


def check_replay(events: Iterable[Event], subject: str = "log") -> list[Diagnostic]:
    """Replay an event stream; report unordered write pairs.

    ``events`` is any iterable of obs events (an :class:`EventLog`
    works).  Only ``access`` spans (writes), ``net`` spans (messages)
    and crash events participate; everything else is ignored.
    """
    found: list[Diagnostic] = []
    timeline: list[tuple[float, int, int, SpanEvent]] = []
    n_access = 0
    log = list(events)
    horizon = _crash_horizons(log)
    for seq, ev in enumerate(log):
        if not isinstance(ev, SpanEvent):
            continue
        if ev.category == "access":
            n_access += 1
            if _units_of(ev.meta) is None:
                found.append(
                    Diagnostic.new(
                        "RA503",
                        (
                            f"access event {ev.name!r} at t={ev.t_start:g} "
                            f"(pid {ev.pid}) has no integer unit list in "
                            f"meta; its writes cannot be accounted"
                        ),
                        locus=subject,
                    )
                )
                continue
            if ev.t_end > horizon.get(ev.pid, float("inf")):
                continue  # lost with its crashed host, never published
            timeline.append((ev.t_start, _ACCESS, seq, ev))
        elif ev.category == "net":
            # One entry at send time (snapshot) and one at arrival
            # (merge); ev.pid is the destination, meta["src"] the source.
            timeline.append((ev.t_start, _SEND, seq, ev))
            timeline.append((ev.t_end, _ARRIVE, seq, ev))

    if n_access == 0:
        found.append(
            Diagnostic.new(
                "RA502",
                (
                    "event log contains no access events; the replay "
                    "check is vacuous (record with observability enabled "
                    "on an instrumented runtime)"
                ),
                locus=subject,
            )
        )
        return found

    timeline.sort(key=lambda item: (item[0], item[1], item[2]))

    # know[p][q]: the latest point on q's local timeline that p knows
    # about, directly or through a chain of messages.
    know: dict[int, dict[int, float]] = {}
    snapshots: dict[int, dict[int, float]] = {}
    # last_write[unit] = (pid, t_end, t_start) of the most recent write.
    last_write: dict[int, tuple[int, float, float]] = {}
    raced_units: set[int] = set()

    def clock(p: int) -> dict[int, float]:
        return know.setdefault(p, {p: float("-inf")})

    def advance(p: int, t: float) -> None:
        c = clock(p)
        c[p] = max(c.get(p, float("-inf")), t)

    def snapshot_send(seq: int, ev: SpanEvent) -> dict[int, float]:
        sender = _sender(ev)
        advance(sender, ev.t_start)
        snap = dict(clock(sender))
        snapshots[seq] = snap
        return snap

    for t, kind, seq, ev in timeline:
        if kind == _SEND:
            snapshot_send(seq, ev)
        elif kind == _ARRIVE:
            snap = snapshots.get(seq)
            if snap is None:
                # Zero-latency message whose arrival sorted first: the
                # sender's current clock at this instant is the snapshot.
                snap = snapshot_send(seq, ev)
            dst = clock(ev.pid)
            for q, tq in snap.items():
                dst[q] = max(dst.get(q, float("-inf")), tq)
            advance(ev.pid, ev.t_end)
        else:  # _ACCESS
            pid = ev.pid
            advance(pid, ev.t_start)
            units = _units_of(ev.meta) or []
            c = clock(pid)
            for u in units:
                prev = last_write.get(u)
                if (
                    prev is not None
                    and prev[0] != pid
                    and c.get(prev[0], float("-inf")) < prev[1]
                    and u not in raced_units
                ):
                    raced_units.add(u)
                    found.append(
                        Diagnostic.new(
                            "RA501",
                            (
                                f"element {u} written by slave {prev[0]} "
                                f"(until t={prev[1]:g}) and then by slave "
                                f"{pid} (from t={ev.t_start:g}) with no "
                                f"message chain ordering the two writes"
                            ),
                            locus=f"unit {u}",
                            details={
                                "unit": u,
                                "first_pid": prev[0],
                                "first_t_end": prev[1],
                                "second_pid": pid,
                                "second_t_start": ev.t_start,
                            },
                        )
                    )
                last_write[u] = (pid, ev.t_end, ev.t_start)
    return found


def check_log_file(path: str | Path) -> list[Diagnostic]:
    """Replay a JSONL event log from disk (``repro run --events``)."""
    return check_replay(EventLog.load(path), subject=str(path))
