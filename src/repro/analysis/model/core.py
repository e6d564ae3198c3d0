"""Finite-state actor models of the DLB control planes.

The model checker abstracts each control plane (centralized master/slave
DLB, FT recovery, checkpoint epochs, hierarchical ``sc.*``) into a small
set of :class:`Actor`\\ s exchanging :class:`Msg`\\ s over asynchronous
per-``(src, dst)`` FIFO channels, mirroring the simulator's transport:
messages between one pair of processes keep their order, delivery across
pairs interleaves nondeterministically, and a *selective* receive may
skip past non-matching messages in a channel exactly like the runtime's
tag-selective mailbox.

Actors are pure transition functions: :meth:`Actor.steps` maps a local
state plus the currently pending messages to the set of enabled
:class:`Step`\\ s (consume at most one message, update the local state,
emit any number of sends).  Local states and payloads are hashable
values (tuples, frozensets, ints, strings, or runtime objects that hash
by value) so the explorer can intern whole :class:`SystemState`\\ s.

A :class:`Model` bundles the actors with the plane's safety invariants
(evaluated on every reached state) and its quiescence predicate.  A
:class:`Step` may also carry a transition-local ``violation`` — shims
use this for checks that belong to an edge rather than a state, e.g.
"a stale-era message was applied" (``RA703``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Mapping, Protocol, Sequence

__all__ = [
    "Actor",
    "Invariant",
    "Model",
    "Msg",
    "Step",
    "SystemState",
    "Violation",
    "initial_state",
    "pending_for",
    "selective",
]


@dataclass(frozen=True)
class Msg:
    """One in-flight message on the ``(src, dst)`` channel."""

    src: str
    dst: str
    tag: str
    payload: Hashable = ()

    def describe(self) -> str:
        body = "" if self.payload == () else f" {self.payload!r}"
        return f"{self.src} -> {self.dst} {self.tag}{body}"


@dataclass(frozen=True)
class Step:
    """One enabled transition of one actor.

    Attributes:
        actor: the acting actor's name.
        label: short human-readable action name for traces.
        next_state: the actor's next local state.
        consumed: the message removed from its channel, or ``None`` for
            an internal step.  Must be one of the pending messages the
            actor was shown.
        sends: messages appended (in order) to their channels.
        violation: transition-local safety violation ``(code, message)``
            raised by taking this step, if any.
    """

    actor: str
    label: str
    next_state: Hashable
    consumed: Msg | None = None
    sends: tuple[Msg, ...] = ()
    violation: tuple[str, str] | None = None


class Actor(Protocol):
    """A finite-state protocol participant.

    A local may hold a runtime object (the rDLB ``ChunkQueue``, the
    stealing ``Ledger``, the ``CheckpointCoordinator``) so the model
    runs the runtime's code.  It compares and hashes by value, and a
    step that changes it changes a copy: once yielded it never changes,
    so a step that leaves it alone shares it with the next state.
    """

    name: str

    def init(self) -> Hashable:
        """The actor's initial local state."""
        ...

    def steps(
        self, local: Hashable, pending: tuple[Msg, ...]
    ) -> Iterable[Step]:
        """All enabled transitions given the local state and the
        pending messages addressed to this actor.

        ``pending`` holds, for every nonempty inbound channel, that
        channel's messages in order; a step may consume any message
        whose earlier same-channel messages it would *not* also match
        (the explorer enforces per-channel order for equal tags, the
        actor is responsible for selectivity).

        Contract required by the partial-order reduction: a step that
        consumes nothing must not depend on ``pending`` at all — no
        "act only if no X is pending" guards.  The explorer verifies
        this by re-deriving the step set with an empty mailbox before
        reducing to this actor alone.
        """
        ...


Channels = tuple[tuple[tuple[str, str], tuple[Msg, ...]], ...]

#: Invariant over a whole system state: returns ``(code, message)`` on
#: violation, ``None`` when the state is fine.
Invariant = Callable[
    [Mapping[str, Hashable], Mapping[tuple[str, str], tuple[Msg, ...]]],
    "tuple[str, str] | None",
]


@dataclass(frozen=True)
class SystemState:
    """Immutable global state: actor locals plus channel contents."""

    locals: tuple[tuple[str, Hashable], ...]  # sorted by actor name
    channels: Channels  # sorted by (src, dst); only nonempty channels

    def locals_map(self) -> dict[str, Hashable]:
        return dict(self.locals)

    def channels_map(self) -> dict[tuple[str, str], tuple[Msg, ...]]:
        return dict(self.channels)

    def replace(
        self,
        actor: str,
        local: Hashable,
        consumed: Msg | None,
        sends: Sequence[Msg],
    ) -> "SystemState":
        """The successor state after one actor step."""
        new_locals = tuple(
            (name, local if name == actor else state)
            for name, state in self.locals
        )
        chans = {key: list(msgs) for key, msgs in self.channels}
        if consumed is not None:
            key = (consumed.src, consumed.dst)
            queue = chans.get(key, [])
            try:
                queue.remove(consumed)
            except ValueError:
                raise ValueError(
                    f"step of {actor!r} consumed a message that is not "
                    f"pending: {consumed.describe()}"
                ) from None
            if not queue:
                del chans[key]
        for msg in sends:
            chans.setdefault((msg.src, msg.dst), []).append(msg)
        return SystemState(
            locals=new_locals,
            channels=tuple(
                (key, tuple(msgs)) for key, msgs in sorted(chans.items())
            ),
        )


def pending_for(state: SystemState, actor: str) -> tuple[Msg, ...]:
    """All in-flight messages addressed to ``actor``, channel by channel
    (each channel's messages stay in order)."""
    out: list[Msg] = []
    for (_, dst), msgs in state.channels:
        if dst == actor:
            out.extend(msgs)
    return tuple(out)


@dataclass(frozen=True)
class Violation:
    """One property violation with its evidence path."""

    code: str
    message: str
    trace: tuple[Step, ...]
    kind: str  # "deadlock" | "livelock" | "invariant" | "transition"


@dataclass
class Model:
    """One control plane abstracted for exhaustive exploration.

    Attributes:
        name: stable model identifier (used as the diagnostic locus).
        plane: the control plane this model abstracts
            (``centralized`` | ``ft`` | ``ckpt`` | ``hier`` |
            ``steal`` | ``rb``).
        actors: the participating actors.
        invariants: global safety invariants, evaluated on every state.
        terminal: quiescent-success predicate over actor locals; the
            explorer additionally requires all live channels drained.
        dead_of: callable deriving the tombstoned actor set from the
            locals (e.g. "slaves the master declared dead"); messages
            to or from a tombstoned actor do not block quiescence.
        notes: abstraction notes surfaced in reports.
    """

    name: str
    plane: str
    actors: list[Actor]
    invariants: list[Invariant] = field(default_factory=list)
    terminal: Callable[[Mapping[str, Hashable]], bool] = lambda locals_: True
    dead_of: Callable[[Mapping[str, Hashable]], frozenset[str]] = (
        lambda locals_: frozenset()
    )
    notes: str = ""

    def actor_names(self) -> list[str]:
        return [a.name for a in self.actors]

    def is_terminal(self, state: SystemState) -> bool:
        """Quiescent success: predicate holds and live channels empty."""
        locals_ = state.locals_map()
        dead = self.dead_of(locals_)
        for (src, dst), msgs in state.channels:
            if msgs and src not in dead and dst not in dead:
                return False
        return self.terminal(locals_)


def selective(
    pending: Sequence[Msg], pred: Callable[[Msg], bool]
) -> list[Msg]:
    """Messages a selective receive with predicate ``pred`` may consume.

    Mirrors the runtime's tag-selective mailbox: within one sender's
    channel a receive may skip past non-matching messages but must take
    the earliest *matching* one; across channels any match is fair game.
    Returns the first matching message of each sender, in sender order.
    """
    out: list[Msg] = []
    taken: set[str] = set()
    for msg in pending:
        if msg.src in taken or not pred(msg):
            continue
        taken.add(msg.src)
        out.append(msg)
    return out


def initial_state(model: Model) -> SystemState:
    """The model's initial :class:`SystemState`."""
    return SystemState(
        locals=tuple(
            sorted((a.name, a.init()) for a in model.actors)
        ),
        channels=(),
    )
