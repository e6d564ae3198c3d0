"""Message record passed between simulated tasks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["Message"]


@dataclass(slots=True)
class Message:
    """A message in flight or delivered to a mailbox.

    Attributes:
        src: sender processor id.
        dst: destination processor id.
        tag: application-level tag used for selective receive.
        payload: arbitrary Python object (numpy arrays are snapshot-copied
            at send time so later mutation by the sender cannot leak).
        nbytes: modelled wire size; determines transfer time.
        t_sent: virtual time the send completed on the sender's CPU.
        t_arrived: virtual time the message entered the destination mailbox.
        seq: per-(src, dst) wire sequence number, stamped only when fault
            injection is active; lets the receiver deduplicate copies.
            ``-1`` means unsequenced (no fault injector armed).

    A fresh ``Message`` is allocated per send, so a receiver may keep
    the object (not only its payload) for as long as it likes.
    """

    src: int
    dst: int
    tag: str
    payload: Any = None
    nbytes: int = 0
    t_sent: float = field(default=0.0, compare=False)
    t_arrived: float = field(default=0.0, compare=False)
    seq: int = field(default=-1, compare=False)

    def __repr__(self) -> str:  # keep payloads out of debug output
        return (
            f"Message({self.src}->{self.dst}, tag={self.tag!r}, "
            f"nbytes={self.nbytes}, t={self.t_arrived:.6f})"
        )
