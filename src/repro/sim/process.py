"""Simulator syscalls.

Application tasks are Python generator functions.  They interact with the
simulator by ``yield``-ing one of the request objects below; the machine
layer satisfies the request and resumes the generator with the result.

================  =====================================================
``Compute``       consume CPU (``ops`` at the processor's speed);
                  optionally run a real numeric kernel eagerly for
                  correctness.
``Send``          asynchronous message send (returns immediately after
                  the sender's per-message CPU overhead).
``Recv``          blocking selective receive -> :class:`Message`; with
                  ``timeout``, -> ``None`` once it expires first.
``Poll``          non-blocking receive -> :class:`Message` or ``None``.
``Sleep``         advance virtual time without consuming CPU.
``Now``           -> current virtual time (float).
================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["Compute", "Send", "Recv", "Poll", "Sleep", "Now"]


@dataclass(slots=True)
class Compute:
    """Consume ``ops`` operations of CPU; run ``fn()`` eagerly if given.

    ``fn`` is executed when the computation *starts* in virtual time.
    Because tasks only exchange data through messages (whose payloads are
    snapshots), eager execution is causally consistent.
    """

    ops: float
    fn: Callable[[], Any] | None = None


@dataclass(slots=True)
class Send:
    """Send ``payload`` to processor ``dst`` under ``tag``.

    Costs the sender ``NetworkSpec.send_cpu`` seconds of CPU; the message
    arrives at the destination mailbox after wire latency + size/bandwidth.
    """

    dst: int
    tag: str
    payload: Any = None
    nbytes: int = 0


@dataclass(slots=True)
class Recv:
    """Block until a message matching ``(src, tag)`` is available.

    ``None`` matches anything.  Costs the receiver ``NetworkSpec.recv_cpu``
    seconds of CPU once a match is found.  With ``timeout`` set, a task
    still waiting ``timeout`` seconds later resumes with ``None`` instead,
    at no CPU cost; ``timeout=0`` acts as :class:`Poll` on an empty
    mailbox.
    """

    src: int | None = None
    tag: str | None = None
    timeout: float | None = None


@dataclass(slots=True)
class Poll:
    """Non-blocking variant of :class:`Recv`; resumes with ``None`` if no
    matching message is queued."""

    src: int | None = None
    tag: str | None = None


@dataclass(slots=True)
class Sleep:
    """Yield the CPU for ``dt`` seconds of virtual time."""

    dt: float


class Now:
    """Request the current virtual time."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Now()"
