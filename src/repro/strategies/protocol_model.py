"""Finite-state abstraction of the work-stealing control plane.

Models the steal/deny/abort protocol and the coordinator ledger of
``strategies/stealing.py`` for exhaustive verification (``repro check
--model --model-plane steal``):

- **Workers** compute their units one at a time and report each
  finished unit to the coordinator (``st.report``).  ``w0`` starts with
  every unit; the others start empty and steal.  An idle thief runs a
  steal round: it asks each peer it does not suspect at most once, one
  ``st.steal`` at a time, and the victim answers ``st.work``
  (steal-half, from the tail of its queue) or ``st.deny``.  A waiting
  thief may nondeterministically time out: it sends ``st.abort``,
  suspects the victim until any message from it arrives, and moves on.
  The victim remembers aborted request ids so a late (tag-selectively
  reordered) ``st.steal`` is denied rather than served twice, while the
  thief accepts late ``st.work`` unconditionally.  A round that finds
  nothing asks the coordinator (a report with the ask flag) and waits
  for ``st.work`` or ``st.term``.  ``w0`` never steals: one thief and
  one victim exercise every race of a steal transaction, and letting
  ``w0`` steal back only mirrors them at many times the state count.
- **The coordinator** runs the runtime's ``Ledger`` of the units nobody
  has reported done.  It answers an ask with copies of the least-copied,
  oldest ledger units (half of them, at least one), and sends
  ``st.term`` to every worker once every unit is reported.
- **Crashes.**  Workers named in ``crashable`` may crash while they have
  a step to take — a unit to compute, a steal to send or an ask to make.
  Nobody is told: there is no failure detector.  A crash while waiting
  is left out, as in the rDLB model: it looks the same to everyone else
  as taking the awaited reply and crashing next, and a crash step that
  is a waiting worker's only step would be forced by the explorer's
  pure-local reduction.  Units held by a crashed worker keep it as their
  custodian; the coordinator's copies are what recover them.
- **Finished actors** take no more steps: messages still addressed to
  them stay unread, as in the runtime, and do not block quiescence.

The steal budget ``max_steals`` bounds each thief's ``st.steal`` sends
(a thief out of budget goes straight to the ask), which keeps the state
space finite while preserving every reordering race around a steal
transaction — selective receive lets the victim see the ``st.abort``
*before* the ``st.steal`` it cancels, so the aborted-request arm is
reachable even at ``max_steals=1``.

Invariants, while the coordinator runs: every unit nobody has reported
has a custodian — a worker's queue (crashed workers included) or an
in-flight ``st.work`` (``RA701``) — and no unit has more custodians
than one plus the copies granted (``RA702``).  It stops only in the
step that empties its ledger, so once it stops every unit has a
reported result.

``MUTATIONS`` seeds protocol corruptions the checker must catch:
dropping the termination broadcast (deadlock), forgetting stolen units
on serve (loss), serving units twice (duplication), a thief ignoring
post-abort work (loss), and a coordinator that never grants a copy
(deadlock under a crash).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, NamedTuple

from ..analysis.model.core import Invariant, Model, Msg, Step, selective
from .stealing import Ledger

__all__ = ["COORD", "MUTATIONS", "StealConfig", "build_model"]

COORD = "co"

#: Seeded protocol corruptions for the checker's test suite.
MUTATIONS: dict[str, str] = {
    "drop_term": "the coordinator never broadcasts st.term",
    "lose_stolen_units": "the victim forgets stolen units when serving",
    "double_serve": "the victim serves units it already gave away",
    "ignore_late_work": "a thief drops st.work arriving after its abort",
    "no_reissue": "the coordinator never grants a copy",
}


@dataclass(frozen=True)
class StealConfig:
    """One work-stealing model configuration."""

    n_workers: int = 2
    units: int = 3
    max_steals: int = 1
    crashable: tuple[str, ...] = ()

    def worker_names(self) -> tuple[str, ...]:
        return tuple(f"w{i}" for i in range(self.n_workers))


class WLocal(NamedTuple):
    """One worker's local state."""

    remaining: frozenset[int]
    phase: str  # "run" | "wait" | "ask" | "stopped" | "crashed"
    asked: frozenset[str]  # peers asked in the current round
    suspects: frozenset[str]  # peers that let a steal time out
    next_req: int
    outstanding: tuple[str, int] | None  # (victim, req) awaiting reply
    aborted: frozenset[tuple[str, int]]  # victim side: aborted (thief, req)


def _worker(remaining: frozenset[int], phase: str) -> WLocal:
    """A worker's state with no steal round, suspicion or abort history
    (a stopped worker's history is irrelevant and is dropped)."""
    return WLocal(
        remaining=remaining,
        phase=phase,
        asked=frozenset(),
        suspects=frozenset(),
        next_req=0,
        outstanding=None,
        aborted=frozenset(),
    )


class CLocal(NamedTuple):
    """The coordinator's local state."""

    ledger: Ledger  # the units nobody has reported
    # Copies granted per unit, kept past its report for the custody
    # invariant: the ledger forgets a unit once it is reported.
    granted: tuple[int, ...]
    stopped: bool


class StealWorker:
    """One worker of the stealing plane."""

    def __init__(self, name: str, cfg: StealConfig, mutation: str | None):
        self.name = name
        self.cfg = cfg
        self.mutation = mutation
        self.crashable = name in cfg.crashable
        # w0 never steals: it asks the coordinator once its queue drains.
        self.peers: tuple[str, ...] = (
            ()
            if name == "w0"
            else tuple(w for w in cfg.worker_names() if w != name)
        )

    def init(self) -> Hashable:
        units = range(self.cfg.units if self.name == "w0" else 0)
        return _worker(frozenset(units), "run")

    def _report(self, units: frozenset[int], ask: bool) -> Msg:
        return Msg(self.name, COORD, "st.report", (tuple(sorted(units)), ask))

    def _intake(self, s: WLocal, pending: tuple[Msg, ...]) -> Iterable[Step]:
        """Message steps of a live worker: thief, victim and stop arms.
        Any message from a peer lifts its suspicion."""
        for msg in selective(pending, lambda m: m.tag == "st.work"):
            payload = msg.payload
            assert isinstance(payload, tuple)
            units, req = frozenset(payload[0]), payload[1]
            heard = s.suspects - {msg.src}
            late = s.outstanding != (msg.src, req)
            if self.mutation == "ignore_late_work" and late and msg.src != COORD:
                # BUG: the thief already aborted, so it throws the
                # stolen units away instead of accepting them.
                yield Step(
                    actor=self.name,
                    label=f"work({sorted(units)}: ignored after abort)",
                    next_state=s._replace(suspects=heard),
                    consumed=msg,
                )
                continue
            # Units arrived: any round in progress ends.
            yield Step(
                actor=self.name,
                label=f"work({msg.src}: {sorted(units)})",
                next_state=s._replace(
                    remaining=s.remaining | units,
                    phase="run",
                    asked=frozenset(),
                    suspects=heard,
                    outstanding=None,
                ),
                consumed=msg,
            )

        for msg in selective(pending, lambda m: m.tag == "st.deny"):
            payload = msg.payload
            assert isinstance(payload, tuple)
            heard = s.suspects - {msg.src}
            if s.phase == "wait" and s.outstanding == (msg.src, payload[0]):
                yield Step(
                    actor=self.name,
                    label=f"deny({msg.src})",
                    next_state=s._replace(
                        phase="run", suspects=heard, outstanding=None
                    ),
                    consumed=msg,
                )
            else:
                yield Step(
                    actor=self.name,
                    label=f"deny({msg.src}: stale)",
                    next_state=s._replace(suspects=heard),
                    consumed=msg,
                )

        for msg in selective(pending, lambda m: m.tag == "st.steal"):
            payload = msg.payload
            assert isinstance(payload, tuple)
            thief, req = str(payload[0]), int(payload[1])
            heard = s.suspects - {thief}
            k = len(s.remaining) // 2
            if (thief, req) in s.aborted or k < 1:
                yield Step(
                    actor=self.name,
                    label=f"steal({thief}#{req}: deny)",
                    next_state=s._replace(
                        suspects=heard, aborted=s.aborted - {(thief, req)}
                    ),
                    consumed=msg,
                    sends=(Msg(self.name, thief, "st.deny", (req,)),),
                )
                continue
            booty = tuple(sorted(s.remaining)[-k:])
            kept = (
                s.remaining
                if self.mutation == "double_serve"
                else s.remaining - frozenset(booty)
            )
            sent = () if self.mutation == "lose_stolen_units" else booty
            yield Step(
                actor=self.name,
                label=f"steal({thief}#{req}: serve {list(booty)})",
                next_state=s._replace(remaining=kept, suspects=heard),
                consumed=msg,
                sends=(Msg(self.name, thief, "st.work", (sent, req)),),
            )

        for msg in selective(pending, lambda m: m.tag == "st.abort"):
            payload = msg.payload
            assert isinstance(payload, tuple)
            thief, req = str(payload[0]), int(payload[1])
            yield Step(
                actor=self.name,
                label=f"abort({thief}#{req})",
                next_state=s._replace(
                    suspects=s.suspects - {thief},
                    aborted=s.aborted | {(thief, req)},
                ),
                consumed=msg,
            )

        for msg in selective(pending, lambda m: m.tag == "st.term"):
            yield Step(
                actor=self.name,
                label="term",
                next_state=_worker(frozenset(), "stopped"),
                consumed=msg,
            )

    def steps(
        self, local: Hashable, pending: tuple[Msg, ...]
    ) -> Iterable[Step]:
        s = local
        assert isinstance(s, WLocal)
        if s.phase in ("stopped", "crashed"):
            return  # late messages stay unread, as in the runtime

        yield from self._intake(s, pending)

        acting = s.phase == "run"
        if acting and s.remaining:
            u = min(s.remaining)
            yield Step(
                actor=self.name,
                label=f"compute(u{u})",
                next_state=s._replace(remaining=s.remaining - {u}),
                sends=(self._report(frozenset({u}), False),),
            )
        elif acting:
            victims = [
                v
                for v in self.peers
                if v not in s.asked and v not in s.suspects
            ]
            if s.next_req < self.cfg.max_steals and victims:
                for victim in victims:
                    req = s.next_req
                    yield Step(
                        actor=self.name,
                        label=f"steal->{victim}#{req}",
                        next_state=s._replace(
                            phase="wait",
                            asked=s.asked | {victim},
                            next_req=req + 1,
                            outstanding=(victim, req),
                        ),
                        sends=(
                            Msg(self.name, victim, "st.steal", (self.name, req)),
                        ),
                    )
            else:
                yield Step(
                    actor=self.name,
                    label="ask",
                    next_state=s._replace(phase="ask", asked=frozenset()),
                    sends=(self._report(frozenset(), True),),
                )

        if s.phase == "wait" and s.outstanding is not None:
            victim, req = s.outstanding
            yield Step(
                actor=self.name,
                label=f"timeout({victim}#{req})",
                next_state=s._replace(
                    phase="run",
                    suspects=s.suspects | {victim},
                    outstanding=None,
                ),
                sends=(Msg(self.name, victim, "st.abort", (self.name, req)),),
            )

        if self.crashable and acting:
            yield Step(
                actor=self.name,
                label="crash",
                next_state=s._replace(phase="crashed", outstanding=None),
            )


class StealCoordinator:
    """The coordinator: an adapter around the runtime's ``Ledger``."""

    name = COORD

    def __init__(self, cfg: StealConfig, mutation: str | None):
        self.cfg = cfg
        self.mutation = mutation

    def init(self) -> Hashable:
        units = range(self.cfg.units)
        return CLocal(Ledger.fromkeys(units, 0), (0,) * len(units), False)

    def steps(
        self, local: Hashable, pending: tuple[Msg, ...]
    ) -> Iterable[Step]:
        s = local
        assert isinstance(s, CLocal)
        if s.stopped:
            return  # late reports stay unread, as in the runtime
        for msg in selective(pending, lambda m: m.tag == "st.report"):
            payload = msg.payload
            assert isinstance(payload, tuple)
            units, ask = payload
            ledger = Ledger(s.ledger)  # a yielded state never changes
            for unit in units:
                ledger.pop(unit, None)
            nxt = s._replace(ledger=ledger)
            label = f"report({msg.src}, {list(units)}" + (", ask)" if ask else ")")
            if not ledger:
                terms = tuple(
                    Msg(self.name, w, "st.term", ())
                    for w in self.cfg.worker_names()
                )
                yield Step(
                    actor=self.name,
                    label=f"{label}: stop all",
                    next_state=CLocal(ledger, (0,) * self.cfg.units, True),
                    consumed=msg,
                    sends=() if self.mutation == "drop_term" else terms,
                )
                continue
            if not ask or self.mutation == "no_reissue":
                yield Step(
                    actor=self.name,
                    label=label,
                    next_state=nxt,
                    consumed=msg,
                )
                continue
            units = ledger.grant()
            granted = tuple(c + (u in units) for u, c in enumerate(s.granted))
            yield Step(
                actor=self.name,
                label=f"{label}: copy {list(units)}",
                next_state=nxt._replace(granted=granted),
                consumed=msg,
                sends=(Msg(self.name, msg.src, "st.work", (units, None)),),
            )


def custody(cfg: StealConfig) -> Invariant:
    """Every unreported unit has a custodian; none has more than one
    plus its copies.

    Custodians: any worker's queue (crashed workers included — units die
    *with* them, they do not vanish) or an in-flight ``st.work`` payload
    (including one to a crashed thief).  A unit in flight in a report,
    or already reported, needs no custodian.
    """

    def check(
        locals_: Mapping[str, Hashable],
        channels: Mapping[tuple[str, str], tuple[Msg, ...]],
    ) -> tuple[str, str] | None:
        coord = locals_[COORD]
        assert isinstance(coord, CLocal)
        if coord.stopped:
            # The coordinator stops only in the step that empties its
            # ledger, so every result is in; what workers still hold no
            # longer matters.
            return None
        done = set(range(cfg.units)) - coord.ledger.keys()
        counts = {u: 0 for u in range(cfg.units)}
        for local in locals_.values():
            if isinstance(local, WLocal):
                for u in local.remaining:
                    counts[u] += 1
        for msgs in channels.values():
            for msg in msgs:
                payload = msg.payload
                assert isinstance(payload, tuple)
                if msg.tag == "st.work":
                    for u in payload[0]:
                        counts[int(u)] += 1
                elif msg.tag == "st.report":
                    done.update(payload[0])
        dup = sorted(u for u, c in counts.items() if c > 1 + coord.granted[u])
        if dup:
            return (
                "RA702",
                f"unit(s) {dup} have more custodians than one plus their "
                f"copies (duplicated by stealing)",
            )
        lost = sorted(u for u, c in counts.items() if c == 0 and u not in done)
        if lost:
            return (
                "RA701",
                f"unit(s) {lost} have no custodian and no reported result "
                f"(lost by stealing)",
            )
        return None

    return check


def build_model(
    cfg: StealConfig | None = None, mutation: str | None = None
) -> Model:
    """Build the work-stealing model for one configuration."""
    cfg = cfg or StealConfig()
    if mutation is not None and mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutation!r}")

    def terminal(locals_: Mapping[str, Hashable]) -> bool:
        coord = locals_[COORD]
        assert isinstance(coord, CLocal)
        return coord.stopped and all(
            local.phase in ("stopped", "crashed")
            for local in locals_.values()
            if isinstance(local, WLocal)
        )

    def dead_of(locals_: Mapping[str, Hashable]) -> frozenset[str]:
        # Crashed and finished tasks: what is still addressed to them is
        # never read, and does not block quiescence.
        return frozenset(
            name
            for name, local in locals_.items()
            if (isinstance(local, WLocal) and local.phase in ("stopped", "crashed"))
            or (isinstance(local, CLocal) and local.stopped)
        )

    workers = [
        StealWorker(name, cfg, mutation) for name in cfg.worker_names()
    ]
    tag = f"steal-P{cfg.n_workers}-u{cfg.units}"
    if cfg.crashable:
        tag += f"-crash[{','.join(cfg.crashable)}]"
    if mutation:
        tag += f"!{mutation}"
    return Model(
        name=tag,
        plane="steal",
        actors=[*workers, StealCoordinator(cfg, mutation)],
        invariants=[custody(cfg)],
        terminal=terminal,
        dead_of=dead_of,
        notes=(
            "steal/deny/abort rounds with tag-selective reordering; "
            f"bounded steal attempts ({cfg.max_steals}); a coordinator "
            "ledger that copies unreported units to askers; fail-stop "
            "crashes with no failure detector"
        ),
    )
