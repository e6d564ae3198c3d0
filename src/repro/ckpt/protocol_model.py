"""Finite-state abstraction of the checkpoint/rollback control plane.

Models the master/slave rollback exchange of ``runtime/master.py``; the
master's epoch and rollback decisions are the runtime's own
:class:`~repro.ckpt.coordinator.CheckpointCoordinator` and
:func:`~repro.ckpt.coordinator.reduction_repartition`, which the model
local holds and calls:

- Slaves run a rep-counted loop (work -> ``lb.status`` -> ``lb.instr``
  hook cycle, like the centralized model but with repetition progress
  instead of unit custody).
- The master nondeterministically opens checkpoint epochs (bounded by
  ``epochs``) with ``open_epoch``: every live member gets a ``ckpt``
  control and answers with a deposit carrying its repetition and owned
  units, which the master files with ``deposit``; the coordinator
  ignores a deposit for another epoch and commits the epoch on its last
  member's deposit.  A crash or the release aborts the open epoch, as
  ``Master._abort_epoch`` does.
- On a crash the master rolls back atomically (master placement — the
  deposits live at the master, so no buddy pulls are needed): the era
  increments, ``rollback_target`` names the latest committed epoch
  (else epoch 0), ``reduction_repartition`` at equal weights splits the
  dead members' cut units among the survivors, each survivor is sent a
  ``rollback`` control with its deposited repetition and new units, and
  all traffic stamped with an older era is dropped on both sides.

Verified properties: era/epoch monotonicity (``RA703`` — applying a
stale-era instruction or filing a deposit into another epoch is a
transition violation), ledger unit conservation across rollback
repartition (``RA701``/``RA702``), deadlock-freedom and termination
reachability.  Out of scope (documented): buddy placement and snapshot
pulls, barrier placement margins, and checkpoint timing — the open
step is a nondeterministic choice wherever the real coordinator's
``due()`` could fire.

``MUTATIONS`` seeds corruptions the checker must catch: a slave without
its era guard, a one-method ``CheckpointCoordinator`` override whose
``deposit`` skips the epoch check, and a stand-in repartition that
restores the survivors' own cut and grants the dead units to no one.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence

from ..analysis.model.core import Invariant, Model, Msg, Step, selective
from ..config import CheckpointConfig
from .coordinator import CheckpointCoordinator, reduction_repartition
from .model import CheckpointEpoch, SlaveSnapshot

__all__ = ["CkptConfig", "MUTATIONS", "build_model"]

MASTER = "master"

#: Seeded checkpoint-protocol corruptions for the checker's test suite.
MUTATIONS: dict[str, str] = {
    "skip_era_check": "slaves apply stale-era instructions after rollback",
    "commit_stale_deposit": (
        "master accepts a deposit from an aborted epoch into the open one"
    ),
    "skip_dead_grant": (
        "rollback restores survivors but never regrants dead units"
    ),
}


@dataclass(frozen=True)
class CkptConfig:
    """Size of the explored configuration (keep these small)."""

    n_slaves: int = 2
    units: int = 2
    reps: int = 2
    epochs: int = 1
    crashable: tuple[str, ...] = ("s1",)
    mutation: str | None = None

    def slave_names(self) -> list[str]:
        return [f"s{i}" for i in range(self.n_slaves)]

    def initial_owned(self, index: int) -> frozenset[int]:
        return frozenset(
            u for u in range(self.units) if u % self.n_slaves == index
        )


class CkptSlaveLocal(NamedTuple):
    phase: str  # run | wait_instr | done | crashed
    era: int
    rep: int
    owned: tuple[int, ...]


class CkptSlave:
    """Rep-loop slave with checkpoint deposits and rollback adoption."""

    def __init__(self, name: str, cfg: CkptConfig, index: int):
        self.name = name
        self.cfg = cfg
        self.index = index
        self.crashable = name in cfg.crashable

    def init(self) -> Hashable:
        return CkptSlaveLocal(
            phase="run",
            era=0,
            rep=0,
            owned=tuple(sorted(self.cfg.initial_owned(self.index))),
        )

    def _ctrl_steps(
        self, s: CkptSlaveLocal, pending: tuple[Msg, ...]
    ) -> Iterable[Step]:
        for msg in selective(pending, lambda m: m.tag == "lb.ctrl"):
            payload = msg.payload
            assert isinstance(payload, tuple)
            kind = payload[0]
            if kind == "ckpt":
                epoch = payload[1]
                yield Step(
                    actor=self.name,
                    label=f"deposit(e{epoch} rep={s.rep})",
                    next_state=s,
                    consumed=msg,
                    sends=(
                        Msg(
                            self.name,
                            MASTER,
                            "ckpt",
                            ("deposit", epoch, s.rep, s.owned),
                        ),
                    ),
                )
            elif kind == "rollback":
                _, era, epoch, rep, owned = payload
                if era <= s.era:
                    # A rollback control is only ever stamped with a
                    # fresh era; an equal-or-older one is unreachable
                    # unless the protocol regressed.
                    yield Step(
                        actor=self.name,
                        label=f"drop stale rollback(era {era})",
                        next_state=s,
                        consumed=msg,
                    )
                    continue
                yield Step(
                    actor=self.name,
                    label=f"rollback(era {era} -> e{epoch} rep={rep})",
                    next_state=CkptSlaveLocal(
                        phase="run", era=era, rep=rep, owned=owned
                    ),
                    consumed=msg,
                )
            else:  # pragma: no cover - malformed model
                raise ValueError(f"unknown control {payload!r}")

    def _instr_steps(
        self, s: CkptSlaveLocal, pending: tuple[Msg, ...]
    ) -> Iterable[Step]:
        for msg in selective(pending, lambda m: m.tag == "lb.instr"):
            payload = msg.payload
            assert isinstance(payload, tuple)
            era, kind = payload
            if era < s.era:
                if self.cfg.mutation == "skip_era_check":
                    # Mutation: the era guard is gone — the slave acts
                    # on an instruction from before the rollback.
                    yield Step(
                        actor=self.name,
                        label=f"APPLY stale instr({kind}, era {era})",
                        next_state=s._replace(
                            phase="done" if kind == "release" else "run"
                        ),
                        consumed=msg,
                        violation=(
                            "RA703",
                            f"slave {self.name} applied a stale-era "
                            f"instruction ({kind!r} from era {era} at "
                            f"era {s.era}); pre-rollback state leaked "
                            f"across the era fence",
                        ),
                    )
                else:
                    yield Step(
                        actor=self.name,
                        label=f"drop stale instr(era {era})",
                        next_state=s,
                        consumed=msg,
                    )
            elif kind == "noop":
                yield Step(
                    actor=self.name,
                    label="instr(noop)",
                    next_state=s._replace(phase="run"),
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
        assert isinstance(s, CkptSlaveLocal)
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
        if s.phase == "run":
            if s.rep < self.cfg.reps:
                nxt = s._replace(phase="wait_instr", rep=s.rep + 1)
                yield Step(
                    actor=self.name,
                    label=f"work(rep {s.rep})",
                    next_state=nxt,
                    sends=(
                        Msg(
                            self.name,
                            MASTER,
                            "lb.status",
                            ("status", s.era, s.rep + 1, False),
                        ),
                    ),
                )
            else:
                yield Step(
                    actor=self.name,
                    label="report_done",
                    next_state=s._replace(phase="wait_instr"),
                    sends=(
                        Msg(
                            self.name,
                            MASTER,
                            "lb.status",
                            ("status", s.era, s.rep, True),
                        ),
                    ),
                )
        elif s.phase == "wait_instr":
            yield from self._instr_steps(s, pending)


class CkptMasterLocal(NamedTuple):
    phase: str  # run | final
    era: int
    coord: CheckpointCoordinator
    owned: tuple[tuple[int, ...], ...]  # authoritative ledger, by pid
    parked: frozenset[str]
    dead: frozenset[str]


class _CommitStaleDeposit(CheckpointCoordinator):
    def deposit(self, pid: int, snapshot: SlaveSnapshot, now: float) -> bool:
        if self.open is not None:  # BUG: no epoch check
            snapshot = replace(snapshot, epoch=self.open.epoch)
        return super().deposit(pid, snapshot, now)


def _drop_dead_units(
    cut: Mapping[int, Sequence[int]],
    live: Sequence[int],
    dead: Sequence[int],
    weights: Mapping[int, float],
) -> tuple[dict[int, list[int]], dict[int, list[tuple[int, list[int]]]]]:
    # BUG: survivors restore their own cut; nobody adopts the dead units
    return {p: list(cut.get(p, ())) for p in live}, {}


def _aborted(coord: CheckpointCoordinator) -> CheckpointCoordinator:
    """``coord`` with no open epoch (a copy only if one was open)."""
    if coord.open is None:
        return coord
    coord = copy.copy(coord)
    coord.abort(0.0)
    return coord


class CkptMaster:
    """Rollback driver and release barrier: an adapter around the
    runtime's ``CheckpointCoordinator`` and ``reduction_repartition``.
    A slave's pid is its index; the model's clock stands still at 0."""

    def __init__(self, cfg: CkptConfig):
        self.name = MASTER
        self.cfg = cfg
        self.slaves = tuple(cfg.slave_names())
        self.coord_cls = (
            _CommitStaleDeposit
            if cfg.mutation == "commit_stale_deposit"
            else CheckpointCoordinator
        )
        self.repartition = (
            _drop_dead_units
            if cfg.mutation == "skip_dead_grant"
            else reduction_repartition
        )

    def init(self) -> Hashable:
        owned = tuple(
            tuple(sorted(self.cfg.initial_owned(p)))
            for p in range(len(self.slaves))
        )
        coord = self.coord_cls(CheckpointConfig(enabled=True))
        # Epoch 0 is the initial state, as ``Master`` registers it.
        coord.epoch0 = CheckpointEpoch(
            epoch=0,
            barrier=0,
            opened_at=0.0,
            members=tuple(range(len(self.slaves))),
            cut=dict(enumerate(owned)),
            committed_at=0.0,
        )
        return CkptMasterLocal(
            phase="run",
            era=0,
            coord=coord,
            owned=owned,
            parked=frozenset(),
            dead=frozenset(),
        )

    def _live(self, m: CkptMasterLocal) -> list[str]:
        return [n for n in self.slaves if n not in m.dead]

    # -- epoch lifecycle -------------------------------------------------

    def _open_step(self, m: CkptMasterLocal) -> Step:
        members = [p for p, n in enumerate(self.slaves) if n not in m.dead]
        coord = copy.copy(m.coord)
        epoch = coord.open_epoch(
            0.0,
            barrier=0,
            members=members,
            cut={p: m.owned[p] for p in members},
            boundaries=None,
            next_move_id=0,
        ).epoch
        return Step(
            actor=self.name,
            label=f"open_epoch(e{epoch})",
            next_state=m._replace(coord=coord),
            sends=tuple(
                Msg(self.name, self.slaves[p], "lb.ctrl", ("ckpt", epoch))
                for p in members
            ),
        )

    def _deposit_step(self, m: CkptMasterLocal, msg: Msg) -> Step:
        payload = msg.payload
        assert isinstance(payload, tuple)
        _, epoch, rep, units = payload
        pid = self.slaves.index(msg.src)
        coord = copy.copy(m.coord)
        snap = SlaveSnapshot(pid=pid, epoch=epoch, rep=rep, units=units)
        committed = coord.deposit(pid, snap, 0.0)
        if not committed and coord == m.coord:  # the coordinator ignored it
            return Step(
                actor=self.name,
                label=f"ignore late deposit(e{epoch} {msg.src})",
                next_state=m,
                consumed=msg,
            )
        filed = coord.committed if committed else coord.open
        assert filed is not None
        violation: tuple[str, str] | None = None
        if filed.epoch != epoch:  # a snapshot belongs to its own epoch
            violation = (
                "RA703",
                f"deposit for epoch {epoch} accepted into open epoch "
                f"{filed.epoch}: the committed cut mixes epochs",
            )
        return Step(
            actor=self.name,
            label=(
                f"commit(e{filed.epoch})"
                if committed
                else f"deposit({msg.src} -> e{filed.epoch})"
            ),
            next_state=m._replace(coord=coord),
            consumed=msg,
            violation=violation,
        )

    # -- rollback --------------------------------------------------------

    def _declare_step(self, m: CkptMasterLocal, msg: Msg) -> Step:
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
        if m.phase == "final":
            # The run already released: a late death needs no rollback,
            # only a tombstone so the victim's channels stop counting.
            return Step(
                actor=self.name,
                label=f"declare_dead({victim}) post-release",
                next_state=m._replace(dead=m.dead | {victim}),
                consumed=msg,
            )
        dead = m.dead | {victim}
        era = m.era + 1
        coord = _aborted(m.coord)  # a death aborts the open epoch
        target = coord.rollback_target()
        live = [p for p in target.members if self.slaves[p] not in dead]
        # Survivors restore their own cut and share the dead members'
        # cut units equally (the model scores custody, not placement).
        new_owned: dict[int, list[int]] = {}
        if live:
            new_owned, _ = self.repartition(
                target.cut,
                live,
                [i for i, n in enumerate(self.slaves) if n in dead],
                dict.fromkeys(live, 1.0),
            )
        sends: list[Msg] = []
        for p in live:
            snap = target.snapshots.get(p)  # epoch 0 holds none: rep 0
            sends.append(
                Msg(
                    self.name,
                    self.slaves[p],
                    "lb.ctrl",
                    (
                        "rollback",
                        era,
                        target.epoch,
                        0 if snap is None else snap.rep,
                        tuple(new_owned[p]),
                    ),
                )
            )
        return Step(
            actor=self.name,
            label=f"declare_dead({victim}) + rollback(era {era})",
            next_state=m._replace(
                phase="run" if live else "final",
                era=era,
                coord=coord,
                owned=tuple(
                    tuple(new_owned.get(p, ())) for p in range(len(self.slaves))
                ),
                parked=frozenset(),  # survivors restart from the cut
                dead=dead,
            ),
            consumed=msg,
            sends=tuple(sends),
        )

    # -- status / release ------------------------------------------------

    def _status_steps(
        self, m: CkptMasterLocal, msg: Msg
    ) -> Iterable[Step]:
        payload = msg.payload
        assert isinstance(payload, tuple)
        _, era, _rep, done = payload
        reporter = msg.src
        if era < m.era:
            yield Step(
                actor=self.name,
                label=f"drop stale status({reporter}, era {era})",
                next_state=m,
                consumed=msg,
            )
            return
        if not done:
            yield Step(
                actor=self.name,
                label=f"reply({reporter}: noop)",
                next_state=m,
                consumed=msg,
                sends=(
                    Msg(self.name, reporter, "lb.instr", (m.era, "noop")),
                ),
            )
            return
        parked = m.parked | {reporter}
        live = self._live(m)
        if all(p in parked for p in live):
            yield Step(
                actor=self.name,
                label=f"park({reporter}) + release-all",
                next_state=m._replace(
                    phase="final",
                    parked=frozenset(),
                    coord=_aborted(m.coord),
                ),
                consumed=msg,
                sends=tuple(
                    Msg(self.name, p, "lb.instr", (m.era, "release"))
                    for p in sorted(live)
                ),
            )
        else:
            yield Step(
                actor=self.name,
                label=f"park({reporter})",
                next_state=m._replace(parked=parked),
                consumed=msg,
            )

    def steps(
        self, local: Hashable, pending: tuple[Msg, ...]
    ) -> Iterable[Step]:
        m = local
        assert isinstance(m, CkptMasterLocal)
        for msg in selective(pending, lambda x: x.tag == "fd.crash"):
            yield self._declare_step(m, msg)
        if m.phase != "run":
            # Post-release: drain stray reports and late deposits so
            # the run can quiesce (the real master ignores them too).
            for msg in selective(
                pending, lambda x: x.tag in ("lb.status", "ckpt")
            ):
                yield Step(
                    actor=self.name,
                    label=f"discard post-release {msg.tag} from {msg.src}",
                    next_state=m,
                    consumed=msg,
                )
            return
        for msg in selective(
            pending,
            lambda x: x.tag in ("lb.status", "ckpt") and x.src in m.dead,
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
            pending, lambda x: x.tag == "ckpt" and x.src not in m.dead
        ):
            yield self._deposit_step(m, msg)
        if (
            m.coord.due_at() is not None  # no epoch open
            and m.coord.next_epoch <= self.cfg.epochs
            and not m.parked
            and self._live(m)
        ):
            yield self._open_step(m)


# -- invariants and model assembly -------------------------------------


def ledger_conservation(cfg: CkptConfig) -> Invariant:
    """The master's post-rollback ownership ledger must partition the
    unit space over live slaves (authoritative custody for this plane:
    rollback rebuilds every slave's owned set from the cut)."""

    def check(
        locals_: Mapping[str, Hashable],
        channels: Mapping[tuple[str, str], tuple[Msg, ...]],
    ) -> tuple[str, str] | None:
        m = locals_.get(MASTER)
        if not isinstance(m, CkptMasterLocal):
            return None
        if m.phase != "run":
            return None  # released or abandoned; the ledger is retired
        if len(m.dead) >= cfg.n_slaves:
            return None  # nobody left; the run is abandoned
        counts = {u: 0 for u in range(cfg.units)}
        for slave, units in zip(cfg.slave_names(), m.owned):
            if slave in m.dead:
                continue
            for u in units:
                counts[u] = counts.get(u, 0) + 1
        lost = sorted(u for u, c in counts.items() if c == 0)
        dup = sorted(u for u, c in counts.items() if c > 1)
        if dup:
            return (
                "RA702",
                f"rollback ledger assigns unit(s) {dup} to more than "
                f"one survivor",
            )
        if lost:
            return (
                "RA701",
                f"rollback ledger dropped unit(s) {lost}: dead members' "
                f"checkpointed units were never regranted",
            )
        return None

    return check


def _tombstoned(locals_: Mapping[str, Hashable]) -> frozenset[str]:
    """Actors whose mailboxes no longer matter for quiescence: declared
    dead, crashed, or released (a released slave's process has exited,
    so a checkpoint order it never drained is discarded, not stuck)."""
    out = set(getattr(locals_[MASTER], "dead", frozenset()))
    for name, local in locals_.items():
        if name != MASTER and getattr(local, "phase", "") in (
            "done",
            "crashed",
        ):
            out.add(name)
    return frozenset(out)


def _terminal(
    cfg: CkptConfig,
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
    cfg: CkptConfig | None = None, mutation: str | None = None
) -> Model:
    """Build the checkpoint-plane model for one configuration."""
    cfg = cfg or CkptConfig()
    if mutation is not None:
        if mutation not in MUTATIONS:
            raise ValueError(f"unknown mutation {mutation!r}")
        cfg = CkptConfig(
            n_slaves=cfg.n_slaves,
            units=cfg.units,
            reps=cfg.reps,
            epochs=cfg.epochs,
            crashable=cfg.crashable,
            mutation=mutation,
        )
    name = (
        f"ckpt-p{cfg.n_slaves}-u{cfg.units}-r{cfg.reps}"
        f"-e{cfg.epochs}-x{len(cfg.crashable)}"
    )
    if cfg.mutation:
        name += f"!{cfg.mutation}"
    actors: list[object] = [CkptMaster(cfg)] + [
        CkptSlave(n, cfg, i) for i, n in enumerate(cfg.slave_names())
    ]
    return Model(
        name=name,
        plane="ckpt",
        actors=actors,  # type: ignore[arg-type]
        invariants=[ledger_conservation(cfg)],
        terminal=_terminal(cfg),
        dead_of=_tombstoned,
        notes=(
            "master snapshot placement (no buddy pulls); epoch opening "
            "is a nondeterministic choice bounded by the epoch budget; "
            "accurate failure detector"
        ),
    )
