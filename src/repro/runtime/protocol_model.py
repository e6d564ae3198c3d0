"""Finite-state abstraction of the centralized master/slave DLB plane.

This is the model-extraction shim the protocol model checker
(``repro.analysis.model``) explores.  It abstracts the runtime protocol
in ``runtime/master.py`` / ``runtime/slave.py`` to its coordination
skeleton:

- A slave completes one work unit per hook, then sends ``lb.status``
  (remaining set, applied move ids, and — at done-time — its banked
  result, mirroring the FT early-result protocol) and blocks on the
  ``lb.instr`` reply, exactly like the real hook cycle.
- The master replies with movement orders (``send``/``recv`` halves of
  a transfer, shipped leaf-to-leaf on ``lb.move.<id>``), a ``noop``, or
  — once every unit is complete, every banked result matches the
  ledger, and no move is outstanding — a ``release``.
- Ownership is *ledger-style*: the master's view of who owns which
  unit changes only through its own decisions (move issue, grant,
  recovery sweep), never by overwriting from a slave report — reports
  carry progress (remaining, applied move ids), and the master
  subtracts the units of still-outstanding outbound moves so a stale
  report cannot double-book a unit into a second move.  This ledger
  abstracts the runtime's rather than copying it: a move's units change
  owner when the move is issued and only the receiver's applied report
  settles it, where ``runtime/master.py`` changes ownership once both
  sides have acked; and the master takes only ``lb.status`` messages,
  selected by tag.
- A done slave is *parked* (no reply) until work arrives for it or the
  run completes, and only once its banked result matches the ledger:
  the failure-tolerant runtime's rule.  The fault-free runtime releases
  a done slave with no move in flight at once.

The ``front`` shape variant abstracts the reduction-front (LU-style)
plane instead: per repetition the front owner broadcasts ``front.<rep>``
and every other slave must consume it before advancing — no movement,
but the broadcast pairing and the final release barrier are explored.

Abstractions (documented, deliberate): rates and timing are dropped
(movement decisions become nondeterministic choices bounded by
``moves``), the transport is reliable and loss-free (PR 3's
retransmission layer is verified separately), numerics are replaced by
unit custody, and a moved unit is re-executed by the receiver even if
the sender had already worked it (work units are deterministic, so
re-execution is safe — only wasteful, which the model does not score).
``MUTATIONS`` lists seeded protocol corruptions used by the test suite
to prove the checker catches real classes of bugs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple

from ..analysis.model.core import Invariant, Model, Msg, Step, selective

__all__ = [
    "CentralConfig",
    "MUTATIONS",
    "CentralMaster",
    "CentralSlave",
    "MasterLocal",
    "SlaveLocal",
    "build_model",
    "unit_conservation",
]

MASTER = "master"

#: Seeded protocol corruptions for the checker's own test suite.
MUTATIONS: dict[str, str] = {
    "drop_release": "master never issues the final release instruction",
    "lose_moved_units": "movement send half ships an empty payload",
    "duplicate_moved_units": "movement send half keeps the shipped units",
    "front_skip_peer": "front owner skips one peer in the broadcast",
}


@dataclass(frozen=True)
class CentralConfig:
    """Size of the explored configuration (keep these small)."""

    n_slaves: int = 2
    units: int = 3
    moves: int = 1
    shape: str = "map"  # "map" | "front"
    mutation: str | None = None

    def slave_names(self) -> list[str]:
        return [f"s{i}" for i in range(self.n_slaves)]

    def initial_owned(self, index: int) -> frozenset[int]:
        return frozenset(
            u for u in range(self.units) if u % self.n_slaves == index
        )


class SlaveLocal(NamedTuple):
    phase: str  # run | wait_instr | wait_move | done | crashed
    owned: frozenset[int]
    remaining: frozenset[int]
    wait_mid: int  # move id awaited in wait_move
    applied: tuple[int, ...]  # moves applied since the last report
    moved: frozenset[int]  # move ids this slave shipped or applied
    canceled: frozenset[int]  # move ids voided by a cancel control
    banked: frozenset[int] | None  # owned set last banked as a result


def _status_payload(
    owned: frozenset[int],
    remaining: frozenset[int],
    applied: tuple[int, ...],
    banked: frozenset[int] | None,
) -> tuple[Hashable, ...]:
    result = (
        tuple(sorted(owned))
        if not remaining and banked != owned
        else None
    )
    return ("status", tuple(sorted(remaining)), applied, result)


class CentralSlave:
    """Map-shape slave: work -> status -> instructions cycle."""

    def __init__(self, name: str, cfg: CentralConfig, index: int):
        self.name = name
        self.cfg = cfg
        self.index = index

    def init(self) -> Hashable:
        owned = self.cfg.initial_owned(self.index)
        return SlaveLocal(
            phase="run",
            owned=owned,
            remaining=owned,
            wait_mid=-1,
            applied=(),
            moved=frozenset(),
            canceled=frozenset(),
            banked=None,
        )

    def _report(self, s: SlaveLocal, label: str) -> Step:
        payload = _status_payload(s.owned, s.remaining, s.applied, s.banked)
        banked = s.banked
        if payload[3] is not None:
            banked = s.owned
        return Step(
            actor=self.name,
            label=label,
            next_state=s._replace(
                phase="wait_instr", applied=(), banked=banked
            ),
            sends=(Msg(self.name, MASTER, "lb.status", payload),),
        )

    def _instr_steps(
        self, s: SlaveLocal, pending: tuple[Msg, ...]
    ) -> Iterable[Step]:
        for msg in selective(pending, lambda m: m.tag == "lb.instr"):
            payload = msg.payload
            assert isinstance(payload, tuple)
            kind = payload[0]
            if kind == "noop":
                yield Step(
                    actor=self.name,
                    label="instr(noop)",
                    next_state=s._replace(phase="run"),
                    consumed=msg,
                )
            elif kind == "send":
                _, mid, units, dst = payload
                if mid in s.canceled:
                    yield Step(
                        actor=self.name,
                        label=f"instr(send m{mid}: voided)",
                        next_state=s._replace(phase="run"),
                        consumed=msg,
                    )
                    continue
                shipped = frozenset(units)
                mutation = self.cfg.mutation
                payload_units = (
                    () if mutation == "lose_moved_units" else tuple(units)
                )
                keep = (
                    s.owned
                    if mutation == "duplicate_moved_units"
                    else s.owned - shipped
                )
                yield Step(
                    actor=self.name,
                    label=f"instr(send m{mid} -> {dst})",
                    next_state=s._replace(
                        phase="run",
                        owned=keep,
                        remaining=s.remaining - shipped,
                        moved=s.moved | {mid},
                    ),
                    consumed=msg,
                    sends=(
                        Msg(
                            self.name,
                            str(dst),
                            f"lb.move.{mid}",
                            ("units", payload_units),
                        ),
                    ),
                )
            elif kind == "recv":
                _, mid, _src = payload
                if mid in s.canceled:
                    yield Step(
                        actor=self.name,
                        label=f"instr(recv m{mid}: voided)",
                        next_state=s._replace(phase="run"),
                        consumed=msg,
                    )
                else:
                    yield Step(
                        actor=self.name,
                        label=f"instr(recv m{mid})",
                        next_state=s._replace(phase="wait_move", wait_mid=mid),
                        consumed=msg,
                    )
            elif kind == "release":
                yield Step(
                    actor=self.name,
                    label="instr(release)",
                    next_state=s._replace(phase="done"),
                    consumed=msg,
                )
            else:  # pragma: no cover - malformed model
                raise ValueError(f"unknown instruction {payload!r}")

    def steps(
        self, local: Hashable, pending: tuple[Msg, ...]
    ) -> Iterable[Step]:
        s = local
        assert isinstance(s, SlaveLocal)
        if s.phase in ("done", "crashed"):
            return
        if s.phase == "run":
            if s.remaining:
                u = min(s.remaining)
                done = s._replace(remaining=s.remaining - {u})
                yield self._report(done, f"work(u{u})")
            else:
                yield self._report(s, "report_done")
        elif s.phase == "wait_instr":
            yield from self._instr_steps(s, pending)
        elif s.phase == "wait_move":
            tag = f"lb.move.{s.wait_mid}"
            for msg in selective(pending, lambda m: m.tag == tag):
                payload = msg.payload
                assert isinstance(payload, tuple)
                units = frozenset(payload[1])
                yield Step(
                    actor=self.name,
                    label=f"apply m{s.wait_mid}",
                    next_state=s._replace(
                        phase="run",
                        owned=s.owned | units,
                        remaining=s.remaining | units,
                        wait_mid=-1,
                        applied=s.applied + (s.wait_mid,),
                        moved=s.moved | {s.wait_mid},
                    ),
                    consumed=msg,
                )


#: An issued-but-unconfirmed move: ``(mid, src, dst, units)``.
MoveRec = tuple[int, str, str, tuple[int, ...]]


class MasterLocal(NamedTuple):
    phase: str  # run | final
    # ledger: (slave, owned, remaining) triples sorted by slave name
    view: tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...]
    parked: frozenset[str]
    # queued movement orders: (dst slave, order payload)
    pending: tuple[tuple[str, tuple[Hashable, ...]], ...]
    outstanding: tuple[MoveRec, ...]  # issued but unconfirmed moves
    moves_left: int
    next_mid: int
    banked: tuple[tuple[str, tuple[int, ...]], ...]  # slave -> result


def _view_get(
    view: tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...], name: str
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    for slave, owned, remaining in view:
        if slave == name:
            return owned, remaining
    raise KeyError(name)


def _view_adjust(
    view: tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...],
    name: str,
    add: frozenset[int] = frozenset(),
    drop: frozenset[int] = frozenset(),
    remaining: tuple[int, ...] | None = None,
) -> tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...]:
    """Ledger update: adjust one slave's owned set (and optionally
    replace its remaining)."""
    out = []
    for slave, owned, rem in view:
        if slave == name:
            new_owned = (frozenset(owned) | add) - drop
            new_rem = (
                tuple(sorted((frozenset(rem) | add) - drop))
                if remaining is None
                else remaining
            )
            out.append((slave, tuple(sorted(new_owned)), new_rem))
        else:
            out.append((slave, owned, rem))
    return tuple(out)


def _bank_set(
    banked: tuple[tuple[str, tuple[int, ...]], ...],
    name: str,
    units: tuple[int, ...] | None,
) -> tuple[tuple[str, tuple[int, ...]], ...]:
    rest = tuple(item for item in banked if item[0] != name)
    if units is None:
        return rest
    return tuple(sorted(rest + ((name, units),)))


class CentralMaster:
    """Map-shape master: status handling, movement, release barrier."""

    def __init__(self, cfg: CentralConfig):
        self.name = MASTER
        self.cfg = cfg

    def init(self) -> Hashable:
        return MasterLocal(
            phase="run",
            view=tuple(
                (
                    name,
                    tuple(sorted(self.cfg.initial_owned(i))),
                    tuple(sorted(self.cfg.initial_owned(i))),
                )
                for i, name in enumerate(self.cfg.slave_names())
            ),
            parked=frozenset(),
            pending=(),
            outstanding=(),
            moves_left=self.cfg.moves,
            next_mid=0,
            banked=(),
        )

    # -- hooks the FT master refines -------------------------------------

    def _live(self, m: MasterLocal) -> frozenset[str]:
        return frozenset(self.cfg.slave_names())

    def _extra_release_blockers(self, m: MasterLocal) -> bool:
        return False

    # -- release barrier -------------------------------------------------

    def _release_ready(self, m: MasterLocal) -> bool:
        """All live slaves parked with a banked result matching the
        ledger, and nothing outstanding anywhere."""
        if m.outstanding or m.pending or m.phase != "run":
            return False
        if self._extra_release_blockers(m):
            return False
        banked = dict(m.banked)
        live = self._live(m)
        for slave, owned, _ in m.view:
            if slave not in live:
                continue
            if slave not in m.parked:
                return False
            if banked.get(slave) != owned:
                return False
        return True

    def _finish(self, m: MasterLocal, sends: list[Msg]) -> MasterLocal:
        """Append releases when the run is complete (mutation hook)."""
        if self.cfg.mutation == "drop_release":
            return m
        if not self._release_ready(m):
            return m
        for slave in sorted(m.parked):
            sends.append(Msg(self.name, slave, "lb.instr", ("release",)))
        return m._replace(parked=frozenset(), phase="final")

    # -- status handling -------------------------------------------------

    def _status_steps(self, m: MasterLocal, msg: Msg) -> Iterable[Step]:
        payload = msg.payload
        assert isinstance(payload, tuple)
        _, remaining_t, applied, result = payload
        reporter = msg.src
        applied_set = frozenset(applied)
        outstanding = tuple(
            rec for rec in m.outstanding if rec[0] not in applied_set
        )
        # Ledger remaining: the report minus units of moves this slave
        # has been ordered to ship but has not confirmed shipping (the
        # report may predate the order).
        ship_pending = frozenset(
            u
            for rec in outstanding
            if rec[1] == reporter
            for u in rec[3]
        )
        remaining_eff = tuple(
            sorted(frozenset(remaining_t) - ship_pending)
        )
        base = m._replace(
            view=_view_adjust(m.view, reporter, remaining=remaining_eff),
            outstanding=outstanding,
        )
        if result is not None:
            base = base._replace(
                banked=_bank_set(base.banked, reporter, result)
            )

        queued = [order for dst, order in base.pending if dst == reporter]
        if queued:
            order = queued[0]
            rest = tuple(
                (dst, o)
                for dst, o in base.pending
                if not (dst == reporter and o == order)
            )
            yield Step(
                actor=self.name,
                label=f"reply({reporter}: queued order)",
                next_state=base._replace(pending=rest),
                consumed=msg,
                sends=(Msg(self.name, reporter, "lb.instr", order),),
            )
            return

        if remaining_eff:
            # Default reply: carry on.
            yield Step(
                actor=self.name,
                label=f"reply({reporter}: noop)",
                next_state=base,
                consumed=msg,
                sends=(Msg(self.name, reporter, "lb.instr", ("noop",)),),
            )
            # Movement branches: shed one unit to an idle slave.
            if base.moves_left > 0:
                yield from self._move_steps(base, msg, reporter)
            return

        # Reporter believes it is done — but park it only if its banked
        # result matches the ledger.  A mismatch means ledger-assigned
        # work (a grant, an unapplied move) has not reached it yet:
        # keep it cycling with a noop so it cannot be parked on a stale
        # done-report.
        owned_v, _ = _view_get(base.view, reporter)
        if dict(base.banked).get(reporter) != owned_v:
            yield Step(
                actor=self.name,
                label=f"reply({reporter}: noop, ledger ahead)",
                next_state=base,
                consumed=msg,
                sends=(Msg(self.name, reporter, "lb.instr", ("noop",)),),
            )
            return
        sends: list[Msg] = []
        parked = base._replace(parked=base.parked | {reporter})
        finished = self._finish(parked, sends)
        yield Step(
            actor=self.name,
            label=f"park({reporter})"
            + (" + release-all" if finished.phase == "final" else ""),
            next_state=finished,
            consumed=msg,
            sends=tuple(sends),
        )

    def _move_steps(
        self, base: MasterLocal, msg: Msg, reporter: str
    ) -> Iterable[Step]:
        """Issue a move: ledger transfer at issue time, confirmation via
        the receiver's later applied-report."""
        _, rep_remaining = _view_get(base.view, reporter)
        if not rep_remaining:
            return
        unit = max(rep_remaining)
        live = self._live(base)
        for dst, _, dst_remaining in base.view:
            if dst == reporter or dst not in live or dst_remaining:
                continue  # only shed toward idle live slaves
            mid = base.next_mid
            units = frozenset({unit})
            view = _view_adjust(base.view, reporter, drop=units)
            view = _view_adjust(view, dst, add=units)
            nxt = base._replace(
                view=view,
                outstanding=base.outstanding
                + ((mid, reporter, dst, (unit,)),),
                moves_left=base.moves_left - 1,
                next_mid=mid + 1,
            )
            sends = [
                Msg(
                    self.name,
                    reporter,
                    "lb.instr",
                    ("send", mid, (unit,), dst),
                )
            ]
            if dst in nxt.parked:
                nxt = nxt._replace(parked=nxt.parked - {dst})
                sends.append(
                    Msg(self.name, dst, "lb.instr", ("recv", mid, reporter))
                )
            else:
                nxt = nxt._replace(
                    pending=nxt.pending + ((dst, ("recv", mid, reporter)),)
                )
            yield Step(
                actor=self.name,
                label=f"move m{mid}: {reporter} -> {dst} (u{unit})",
                next_state=nxt,
                consumed=msg,
                sends=tuple(sends),
            )

    def steps(
        self, local: Hashable, pending: tuple[Msg, ...]
    ) -> Iterable[Step]:
        m = local
        assert isinstance(m, MasterLocal)
        if m.phase != "run":
            return
        for msg in selective(pending, lambda x: x.tag == "lb.status"):
            yield from self._status_steps(m, msg)


# -- reduction-front variant -------------------------------------------


class FrontSlave(NamedTuple):
    phase: str  # run | wait_release | done
    rep: int


class FrontSlaveActor:
    """Reduction-front slave: broadcast/consume ``front.<rep>`` in order."""

    def __init__(self, name: str, cfg: CentralConfig, index: int):
        self.name = name
        self.cfg = cfg
        self.index = index

    def init(self) -> Hashable:
        return FrontSlave(phase="run", rep=0)

    def _owner(self, rep: int) -> str:
        return f"s{rep % self.cfg.n_slaves}"

    def steps(
        self, local: Hashable, pending: tuple[Msg, ...]
    ) -> Iterable[Step]:
        s = local
        assert isinstance(s, FrontSlave)
        if s.phase == "done":
            return
        if s.phase == "wait_release":
            for msg in selective(pending, lambda m: m.tag == "lb.instr"):
                yield Step(
                    actor=self.name,
                    label="instr(release)",
                    next_state=s._replace(phase="done"),
                    consumed=msg,
                )
            return
        if s.rep >= self.cfg.units:
            yield Step(
                actor=self.name,
                label="report_done",
                next_state=s._replace(phase="wait_release"),
                sends=(
                    Msg(self.name, MASTER, "lb.status", ("front_done",)),
                ),
            )
            return
        if self._owner(s.rep) == self.name:
            peers = [n for n in self.cfg.slave_names() if n != self.name]
            if self.cfg.mutation == "front_skip_peer" and peers:
                peers = peers[:-1]
            yield Step(
                actor=self.name,
                label=f"front(rep {s.rep})",
                next_state=s._replace(rep=s.rep + 1),
                sends=tuple(
                    Msg(self.name, peer, f"front.{s.rep}", ()) for peer in peers
                ),
            )
        else:
            tag = f"front.{s.rep}"
            for msg in selective(pending, lambda m: m.tag == tag):
                yield Step(
                    actor=self.name,
                    label=f"consume front(rep {s.rep})",
                    next_state=s._replace(rep=s.rep + 1),
                    consumed=msg,
                )


class FrontMaster(NamedTuple):
    phase: str  # run | final
    done: frozenset[str]


class FrontMasterActor:
    """Reduction-front master: collect done reports, release everyone."""

    def __init__(self, cfg: CentralConfig):
        self.name = MASTER
        self.cfg = cfg

    def init(self) -> Hashable:
        return FrontMaster(phase="run", done=frozenset())

    def steps(
        self, local: Hashable, pending: tuple[Msg, ...]
    ) -> Iterable[Step]:
        m = local
        assert isinstance(m, FrontMaster)
        if m.phase != "run":
            return
        everyone = frozenset(self.cfg.slave_names())
        for msg in selective(pending, lambda x: x.tag == "lb.status"):
            done = m.done | {msg.src}
            sends: tuple[Msg, ...] = ()
            phase = "run"
            if done == everyone and self.cfg.mutation != "drop_release":
                sends = tuple(
                    Msg(self.name, slave, "lb.instr", ("release",))
                    for slave in sorted(everyone)
                )
                phase = "final"
            yield Step(
                actor=self.name,
                label=f"collect({msg.src})"
                + (" + release-all" if phase == "final" else ""),
                next_state=FrontMaster(phase=phase, done=done),
                consumed=msg,
                sends=sends,
            )


# -- invariants and model assembly -------------------------------------


def unit_conservation(cfg: CentralConfig) -> Invariant:
    """Every unit has exactly one custodian.

    Custodians: a live (or crashed-but-undeclared) slave's owned set, an
    in-flight ``units``/``grant`` payload on a channel between live
    actors, the master's reclaim pool, or a declared-dead slave's banked
    result.  Channels touching a declared-dead actor are ghost data —
    custody authority there is the master's ledger, so they are skipped;
    units of an unresolved in-flight move the master has *parked*
    (``contested``) may legitimately have zero other custodians until
    the surviving peer's cancel ack resolves them.
    """

    def check(
        locals_: Mapping[str, Hashable],
        channels: Mapping[tuple[str, str], tuple[Msg, ...]],
    ) -> tuple[str, str] | None:
        counts = {u: 0 for u in range(cfg.units)}
        master = locals_.get(MASTER)
        dead: frozenset[str] = frozenset()
        if master is not None and hasattr(master, "dead"):
            dead = master.dead  # FT extension
        parked: set[int] = set()
        if master is not None and hasattr(master, "contested"):
            for rec in master.contested:  # MoveRec
                parked.update(rec[3])
        for name, local in locals_.items():
            if name == MASTER or not isinstance(local, SlaveLocal):
                continue
            if name in dead:
                continue  # custody reclaimed by the master on declare
            for u in local.owned:
                counts[u] = counts.get(u, 0) + 1
        if master is not None and hasattr(master, "pool"):
            for u in master.pool:  # FT reclaim pool
                counts[u] = counts.get(u, 0) + 1
        if master is not None and hasattr(master, "banked"):
            for slave, units in master.banked:
                if slave in dead:
                    for u in units:
                        counts[u] = counts.get(u, 0) + 1
        for (src, dst), msgs in channels.items():
            if src in dead or dst in dead:
                continue  # ghost data; the ledger is authoritative
            for msg in msgs:
                payload = msg.payload
                if (
                    isinstance(payload, tuple)
                    and payload
                    and payload[0] in ("units", "grant")
                ):
                    for u in payload[1]:
                        counts[u] = counts.get(u, 0) + 1
        lost = sorted(
            u for u, c in counts.items() if c == 0 and u not in parked
        )
        dup = sorted(u for u, c in counts.items() if c > 1)
        if dup:
            return (
                "RA702",
                f"unit(s) {dup} have more than one custodian "
                f"(duplicated by movement/recovery)",
            )
        if lost:
            return (
                "RA701",
                f"unit(s) {lost} have no custodian (lost by "
                f"movement/recovery)",
            )
        return None

    return check


def _terminal_map(
    cfg: CentralConfig,
) -> "Callable[[Mapping[str, Hashable]], bool]":
    def done(locals_: Mapping[str, Hashable]) -> bool:
        for name, local in locals_.items():
            if name == MASTER:
                if getattr(local, "phase", "") != "final":
                    return False
            elif getattr(local, "phase", "") not in ("done", "crashed"):
                return False
        return True

    return done


def build_model(
    cfg: CentralConfig | None = None, mutation: str | None = None
) -> Model:
    """Build the centralized-plane model for one configuration."""
    cfg = cfg or CentralConfig()
    if mutation is not None:
        if mutation not in MUTATIONS:
            raise ValueError(f"unknown mutation {mutation!r}")
        cfg = CentralConfig(
            n_slaves=cfg.n_slaves,
            units=cfg.units,
            moves=cfg.moves,
            shape=cfg.shape,
            mutation=mutation,
        )
    name = (
        f"centralized-{cfg.shape}-p{cfg.n_slaves}-u{cfg.units}-m{cfg.moves}"
    )
    if cfg.mutation:
        name += f"!{cfg.mutation}"
    if cfg.shape == "front":
        actors: list[object] = [FrontMasterActor(cfg)] + [
            FrontSlaveActor(n, cfg, i)
            for i, n in enumerate(cfg.slave_names())
        ]
        return Model(
            name=name,
            plane="centralized",
            actors=actors,  # type: ignore[arg-type]
            invariants=[],
            terminal=_terminal_map(cfg),
            notes="reduction-front broadcast skeleton; no movement",
        )
    actors = [CentralMaster(cfg)] + [
        CentralSlave(n, cfg, i) for i, n in enumerate(cfg.slave_names())
    ]
    return Model(
        name=name,
        plane="centralized",
        actors=actors,  # type: ignore[arg-type]
        invariants=[unit_conservation(cfg)],
        terminal=_terminal_map(cfg),
        notes=(
            "hook cycle with bounded nondeterministic movement; "
            "reliable transport assumed (verified separately)"
        ),
    )
