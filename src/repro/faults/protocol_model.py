"""Finite-state abstraction of the failure-tolerant DLB control plane.

Extends the centralized-plane model (``runtime/protocol_model.py``)
with the FT recovery protocol of ``runtime/master.py`` /
``runtime/slave.py``:

- **Crash nondeterminism.**  Each slave named in ``crashable`` may
  crash at any live point (running, blocked on an instruction, or
  waiting for moved work).  A crash emits an ``fd.crash`` oracle
  message to the master from a pseudo-source ``fd`` — the model of an
  *accurate* failure detector: detection may race arbitrarily with the
  victim's own in-flight messages (separate channel), but never accuses
  a live process.  Suspicion of live processes (inaccurate detection)
  is handled by the runtime's suspicion grace logic and is out of this
  model's scope.
- **Declare-dead resolution.**  On ``fd.crash`` the master tombstones
  the victim, voids its queued orders, and resolves every in-flight
  move touching it: the surviving peer gets a cancel control and the
  move's units are *parked* (``contested``) until the peer's ack
  reports whether the move was ``applied`` (units live at/through the
  peer) or ``canceled`` (units reclaimed to the master's pool).
  Non-contested units owned by the victim are swept to the pool —
  unless the victim had banked its final result, which survives it (the
  FT early-result protocol).  This abstracts ``Master.declare_dead``,
  which sends a cancel only when the peer may have executed its half:
  it settles a move the peer already acked, and drops one still queued
  for the peer, without a control.
- **Regrant.**  Pooled units are granted to a live slave (``lb.ctrl``
  grant + explicit ack); the release barrier additionally waits for an
  empty pool, no contested moves, and no unacknowledged grants.  The
  model grants the whole pool to the first live slave, in a step of its
  own; the runtime grants at the death, split over the survivors by
  rate.  Like the centralized model, the master selects its messages by
  tag, where the failure-tolerant runtime master takes any message in
  mailbox order.
- **Wake.**  A parked slave that is sent a control (grant or cancel) is
  answered at once with a ``noop``, as the runtime's master sends a
  plain reply, so it serves the control; a parked grantee whose grant
  ack shows the ledger ahead of its banked result is woken too.

``MUTATIONS`` seeds recovery-protocol corruptions the checker must
catch: dropping the cancel leg (deadlock), sweeping contested units
(duplication), forgetting to regrant (unit loss), and never waking a
parked grantee (deadlock).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, NamedTuple

from ..analysis.model.core import Model, Msg, Step, selective
from ..runtime.protocol_model import (
    MASTER,
    CentralConfig,
    CentralMaster,
    CentralSlave,
    MasterLocal,
    MoveRec,
    SlaveLocal,
    _bank_set,
    _terminal_map,
    _view_adjust,
    _view_get,
    unit_conservation,
)

__all__ = ["FTConfig", "MUTATIONS", "build_model"]

#: Seeded recovery-protocol corruptions for the checker's test suite.
MUTATIONS: dict[str, str] = {
    "drop_cancel": (
        "declare_dead never cancels in-flight moves with the survivor"
    ),
    "sweep_contested": (
        "declare_dead sweeps contested in-flight units into the pool"
    ),
    "forget_regrant": "recovered units are dropped instead of pooled",
    "no_wake": "a parked grantee is never answered",
}


@dataclass(frozen=True)
class FTConfig(CentralConfig):
    """Centralized configuration plus a crash fault script."""

    crashable: tuple[str, ...] = ("s1",)


class FTSlave(CentralSlave):
    """Centralized slave plus crash and ``lb.ctrl`` handling."""

    def __init__(self, name: str, cfg: FTConfig, index: int):
        super().__init__(name, cfg, index)
        self.crashable = name in cfg.crashable

    def _ctrl_steps(
        self, s: SlaveLocal, pending: tuple[Msg, ...]
    ) -> Iterable[Step]:
        for msg in selective(pending, lambda m: m.tag == "lb.ctrl"):
            payload = msg.payload
            assert isinstance(payload, tuple)
            kind = payload[0]
            if kind == "grant":
                units = frozenset(payload[1])
                yield Step(
                    actor=self.name,
                    label=f"ctrl(grant {payload[1]})",
                    next_state=s._replace(
                        owned=s.owned | units, remaining=s.remaining | units
                    ),
                    consumed=msg,
                    sends=(
                        Msg(
                            self.name,
                            MASTER,
                            "lb.ack",
                            ("ack_grant", payload[1]),
                        ),
                    ),
                )
            elif kind == "cancel":
                mid = payload[1]
                if mid in s.moved:
                    # The move already went through on this side.
                    yield Step(
                        actor=self.name,
                        label=f"ctrl(cancel m{mid}: already applied)",
                        next_state=s,
                        consumed=msg,
                        sends=(
                            Msg(
                                self.name,
                                MASTER,
                                "lb.ack",
                                ("ack", mid, "applied"),
                            ),
                        ),
                    )
                else:
                    nxt = s._replace(canceled=s.canceled | {mid})
                    if s.phase == "wait_move" and s.wait_mid == mid:
                        nxt = nxt._replace(phase="run", wait_mid=-1)
                    yield Step(
                        actor=self.name,
                        label=f"ctrl(cancel m{mid}: canceled)",
                        next_state=nxt,
                        consumed=msg,
                        sends=(
                            Msg(
                                self.name,
                                MASTER,
                                "lb.ack",
                                ("ack", mid, "canceled"),
                            ),
                        ),
                    )
            else:  # pragma: no cover - malformed model
                raise ValueError(f"unknown control {payload!r}")

    def steps(
        self, local: Hashable, pending: tuple[Msg, ...]
    ) -> Iterable[Step]:
        s = local
        assert isinstance(s, SlaveLocal)
        if s.phase in ("done", "crashed"):
            return
        if self.crashable:
            yield Step(
                actor=self.name,
                label="crash",
                next_state=s._replace(phase="crashed"),
                sends=(Msg("fd", MASTER, "fd.crash", (self.name,)),),
            )
        yield from self._ctrl_steps(s, pending)
        yield from super().steps(local, pending)


class FTMasterLocal(NamedTuple):
    phase: str  # run | final
    view: tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...]
    parked: frozenset[str]
    pending: tuple[tuple[str, tuple[Hashable, ...]], ...]
    outstanding: tuple[MoveRec, ...]
    moves_left: int
    next_mid: int
    banked: tuple[tuple[str, tuple[int, ...]], ...]
    dead: frozenset[str]
    pool: frozenset[int]
    contested: tuple[MoveRec, ...]  # canceled, awaiting the peer's ack
    granted: tuple[tuple[str, tuple[int, ...]], ...]  # unacked grants


class FTMaster(CentralMaster):
    """Centralized master plus declare-dead recovery and regranting."""

    def __init__(self, cfg: FTConfig):
        super().__init__(cfg)
        self.ft_cfg = cfg

    def init(self) -> Hashable:
        base = super().init()
        assert isinstance(base, MasterLocal)
        return FTMasterLocal(
            *base,
            dead=frozenset(),
            pool=frozenset(),
            contested=(),
            granted=(),
        )

    # -- hooks -----------------------------------------------------------

    def _live(self, m: MasterLocal) -> frozenset[str]:
        dead = getattr(m, "dead", frozenset())
        return frozenset(self.cfg.slave_names()) - dead

    def _extra_release_blockers(self, m: MasterLocal) -> bool:
        return bool(
            getattr(m, "pool", None)
            or getattr(m, "contested", None)
            or getattr(m, "granted", None)
        )

    def _wake(
        self, m: FTMasterLocal, slave: str, sends: list[Msg]
    ) -> FTMasterLocal:
        """Answer a parked ``slave`` with a ``noop`` so it serves what it
        was just sent (the ``no_wake`` mutation never does)."""
        if slave not in m.parked or self.cfg.mutation == "no_wake":
            return m
        sends.append(Msg(self.name, slave, "lb.instr", ("noop",)))
        return m._replace(parked=m.parked - {slave})

    # -- recovery --------------------------------------------------------

    def _declare_step(self, m: FTMasterLocal, msg: Msg) -> Step:
        payload = msg.payload
        assert isinstance(payload, tuple)
        victim = str(payload[0])
        if victim in m.dead:
            return Step(
                actor=self.name,
                label=f"fd({victim}: already declared)",
                next_state=m,
                consumed=msg,
            )
        mutation = self.cfg.mutation
        dead = m.dead | {victim}
        sends: list[Msg] = []

        # Void queued orders destined for the victim.
        pending = tuple(
            (dst, order) for dst, order in m.pending if dst != victim
        )
        voided_mids = frozenset(
            order[1]
            for dst, order in m.pending
            if dst == victim and isinstance(order[1], int)
        )

        # Split in-flight moves into untouched and victim-involved.
        keep: list[MoveRec] = []
        hit: list[MoveRec] = []
        for rec in m.outstanding:
            (hit if victim in (rec[1], rec[2]) else keep).append(rec)

        # Banked final results survive their owner iff they match the
        # ledger; otherwise they are stale and dropped.
        owned_t, _ = _view_get(m.view, victim)
        banked = dict(m.banked)
        keep_bank = banked.get(victim) == owned_t
        new_banked = (
            m.banked if keep_bank else _bank_set(m.banked, victim, None)
        )
        kept_bank_units: frozenset[int] = frozenset(
            u
            for slave, units in new_banked
            if slave in dead
            for u in units
        )

        contested = list(m.contested)
        pool = set(m.pool)
        contested_units: set[int] = set()
        for rec in hit:
            mid, src, dst, units = rec
            peer = dst if src == victim else src
            if peer in dead:
                # Both endpoints dead: the move cannot be resolved by an
                # ack; re-execute unless the work is already banked.
                pool.update(frozenset(units) - kept_bank_units)
                continue
            if mid in voided_mids:
                # The peer never saw its half of the order; still cancel
                # so the mid is voided everywhere and acked uniformly.
                pass
            if mutation == "sweep_contested":
                pool.update(units)
            contested_units.update(units)
            contested.append(rec)
            if mutation != "drop_cancel":
                sends.append(
                    Msg(self.name, peer, "lb.ctrl", ("cancel", mid))
                )
        # A previously contested move whose surviving peer just died can
        # no longer be acked: resolve it to the pool.
        still_contested: list[MoveRec] = []
        for rec in contested:
            mid, src, dst, units = rec
            if src in dead and dst in dead:
                pool.update(frozenset(units) - kept_bank_units)
            else:
                still_contested.append(rec)

        # Sweep the victim's non-contested ledger units for re-execution
        # (skip entirely when its final result is banked).
        if not keep_bank:
            sweep = frozenset(owned_t) - frozenset(contested_units)
            pool.update(sweep)

        # Unacked grants to the victim are part of its swept ledger.
        granted = tuple(g for g in m.granted if g[0] != victim)

        if mutation == "forget_regrant":
            pool = set(m.pool)

        nxt = m._replace(
            view=m.view,
            parked=m.parked - {victim},
            pending=pending,
            outstanding=tuple(keep),
            banked=new_banked,
            dead=dead,
            pool=frozenset(pool),
            contested=tuple(still_contested),
            granted=granted,
        )
        for cancel in list(sends):
            nxt = self._wake(nxt, cancel.dst, sends)
        nxt = self._finish(nxt, sends)
        return Step(
            actor=self.name,
            label=f"declare_dead({victim})",
            next_state=nxt,
            consumed=msg,
            sends=tuple(sends),
        )

    def _ack_steps(self, m: FTMasterLocal, msg: Msg) -> Iterable[Step]:
        payload = msg.payload
        assert isinstance(payload, tuple)
        if payload[0] == "ack_grant":
            units = payload[1]
            granted = tuple(
                g for g in m.granted if g != (msg.src, units)
            )
            nxt = m._replace(granted=granted)
            sends: list[Msg] = []
            label = f"ack_grant({msg.src})"
            banked = dict(nxt.banked)
            owned_t, _ = _view_get(nxt.view, msg.src)
            if banked.get(msg.src) != owned_t:
                # The grantee parked on a stale done-report; wake it.
                woken = self._wake(nxt, msg.src, sends)
                if woken is not nxt:
                    label += " + wake"
                nxt = woken
            nxt = self._finish(nxt, sends)
            yield Step(
                actor=self.name,
                label=label,
                next_state=nxt,
                consumed=msg,
                sends=tuple(sends),
            )
            return
        _, mid, status = payload
        rec = next((r for r in m.contested if r[0] == mid), None)
        if rec is None:
            yield Step(
                actor=self.name,
                label=f"ack(m{mid}: stale, dropped)",
                next_state=m,
                consumed=msg,
            )
            return
        _, src, dst, units = rec
        u = frozenset(units)
        nxt = m._replace(
            contested=tuple(r for r in m.contested if r[0] != mid)
        )
        if status == "applied":
            if dst in m.dead:
                # Live sender shipped into a tombstone: reclaim.
                nxt = nxt._replace(
                    pool=nxt.pool | u,
                    view=_view_adjust(nxt.view, dst, drop=u),
                )
            # else: src dead, live dst applied — ledger credited the
            # units to dst at issue time; nothing to do.
        else:  # canceled
            if dst in m.dead:
                # Live sender never shipped: undo the issue-time debit.
                nxt = nxt._replace(
                    view=_view_adjust(
                        _view_adjust(nxt.view, dst, drop=u),
                        src,
                        add=u,
                    )
                )
            else:
                # Dead sender, live receiver canceled: units lost with
                # the sender; reclaim for re-execution.
                nxt = nxt._replace(
                    pool=nxt.pool | u,
                    view=_view_adjust(nxt.view, dst, drop=u),
                )
        sends2: list[Msg] = []
        nxt = self._finish(nxt, sends2)
        yield Step(
            actor=self.name,
            label=f"ack(m{mid}: {status})",
            next_state=nxt,
            consumed=msg,
            sends=tuple(sends2),
        )

    def _grant_step(self, m: FTMasterLocal) -> Step:
        target = sorted(self._live(m))[0]
        units = tuple(sorted(m.pool))
        nxt = m._replace(
            pool=frozenset(),
            view=_view_adjust(m.view, target, add=frozenset(units)),
            granted=m.granted + ((target, units),),
        )
        sends = [Msg(self.name, target, "lb.ctrl", ("grant", units))]
        nxt = self._wake(nxt, target, sends)
        return Step(
            actor=self.name,
            label=f"grant {units} -> {target}",
            next_state=nxt,
            sends=tuple(sends),
        )

    # -- dispatch --------------------------------------------------------

    def steps(
        self, local: Hashable, pending: tuple[Msg, ...]
    ) -> Iterable[Step]:
        m = local
        assert isinstance(m, FTMasterLocal)
        for msg in selective(pending, lambda x: x.tag == "fd.crash"):
            yield self._declare_step(m, msg)
        if m.phase != "run":
            return
        for msg in selective(
            pending,
            lambda x: x.tag in ("lb.status", "lb.ack") and x.src in m.dead,
        ):
            yield Step(
                actor=self.name,
                label=f"drop ghost {msg.tag} from {msg.src}",
                next_state=m,
                consumed=msg,
            )
        for msg in selective(
            pending,
            lambda x: x.tag == "lb.status" and x.src not in m.dead,
        ):
            yield from self._status_steps(m, msg)
        for msg in selective(
            pending, lambda x: x.tag == "lb.ack" and x.src not in m.dead
        ):
            yield from self._ack_steps(m, msg)
        if m.pool and self._live(m):
            yield self._grant_step(m)


def build_model(
    cfg: FTConfig | None = None, mutation: str | None = None
) -> Model:
    """Build the FT-plane model for one configuration."""
    cfg = cfg or FTConfig()
    if mutation is not None:
        if mutation not in MUTATIONS:
            raise ValueError(f"unknown mutation {mutation!r}")
        cfg = FTConfig(
            n_slaves=cfg.n_slaves,
            units=cfg.units,
            moves=cfg.moves,
            shape=cfg.shape,
            mutation=mutation,
            crashable=cfg.crashable,
        )
    name = (
        f"ft-p{cfg.n_slaves}-u{cfg.units}-m{cfg.moves}"
        f"-x{len(cfg.crashable)}"
    )
    if cfg.mutation:
        name += f"!{cfg.mutation}"
    actors = [FTMaster(cfg)] + [
        FTSlave(n, cfg, i) for i, n in enumerate(cfg.slave_names())
    ]
    return Model(
        name=name,
        plane="ft",
        actors=actors,  # type: ignore[arg-type]
        invariants=[unit_conservation(cfg)],
        terminal=_terminal_map(cfg),
        dead_of=lambda locals_: getattr(
            locals_[MASTER], "dead", frozenset()
        ),
        notes=(
            "accurate failure detector (fd.crash oracle); crashes are "
            "fail-stop; suspicion grace and retransmission are runtime "
            "concerns outside this model"
        ),
    )
