"""Finite-state abstraction of the robust self-scheduling control plane.

Models the request/work protocol of ``strategies/rdlb.py`` for
exhaustive verification (``repro check --model --model-plane rb``):

- **Workers** send ``rb.request`` (carrying the previous chunk's
  result, if any) and wait for ``rb.work``.  A chunk is one unit; an
  empty unit tuple stops the worker.
- **The master** blocks on ``rb.request`` and runs the runtime's
  ``ChunkQueue`` (chunk ``u`` is unit ``u``).  It records the result
  that came with a request (the first result for a chunk wins), then
  answers with the next queue chunk, else — the queue dry — a copy of
  the oldest outstanding chunk the requester does not hold and that has
  fewer than ``dup_max`` holders, else nothing: the requester waits.
  Once the last unit's result is in, it stops every worker; later
  requests are dropped, as the finished runtime master leaves them.
- **Crashes.**  Workers named in ``crashable`` may crash before their
  first request or mid-chunk.  Nobody is told: there is no failure
  detector, so the master keeps counting a crashed worker among a
  chunk's holders.  A chunk survives ``dup_max - 1`` holder crashes, so
  with one crashable worker and ``dup_max=2`` every run must still
  finish.  A crash while waiting is left out: the master cannot tell it
  from taking the next reply and crashing mid-chunk, and a crash step
  beside a send stays out of the explorer's pure-local reduction, which
  would otherwise force the crash wherever the worker waits.

The safety property is result completeness: once the master stops, it
holds an accepted result for every unit (``RA701`` otherwise).
Deadlock-freedom and liveness (``RA601``/``RA602``) say the master
never waits forever on requests that cannot come.

``MUTATIONS`` seeds corruptions the checker must catch, each a one-method
``ChunkQueue`` override: a dry queue that never reissues (deadlock under
a crash), stopping once the queue is empty rather than once every result
is in (loss), and counting a duplicate result as a completion (loss).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, NamedTuple

from ..analysis.model.core import Invariant, Model, Msg, Step, selective
from .rdlb import ChunkPolicy, ChunkQueue

__all__ = ["MASTER", "MUTATIONS", "RbConfig", "build_model"]

MASTER = "m"

#: Seeded protocol corruptions for the checker's test suite.
MUTATIONS: dict[str, str] = {
    "no_reissue": "a dry queue never reissues an outstanding chunk",
    "stop_when_dry": (
        "the master stops the workers once its queue is empty, not once "
        "every result is in"
    ),
    "count_duplicates": "a duplicate result counts as a new completion",
}


@dataclass(frozen=True)
class RbConfig:
    """One robust self-scheduling model configuration."""

    n_workers: int = 3
    units: int = 3
    dup_max: int = 2
    crashable: tuple[str, ...] = ()

    def worker_names(self) -> tuple[str, ...]:
        return tuple(f"w{i}" for i in range(self.n_workers))


class WLocal(NamedTuple):
    """One worker's local state."""

    phase: str  # "start" | "wait" | "run" | "stopped" | "crashed"
    unit: int | None  # the chunk being computed


class MLocal(NamedTuple):
    """The master's local state."""

    chunks: ChunkQueue
    stopped: bool


class _NoReissue(ChunkQueue):
    def reissue(self, pid: Hashable) -> None:
        return None  # BUG: the dry queue never reissues


class _StopWhenDry(ChunkQueue):
    def finished(self) -> bool:
        return not self.queue  # BUG: outstanding chunks are abandoned


class _CountDuplicates(ChunkQueue):
    def record(self, cid: int) -> bool:
        first = super().record(cid)
        self.done += not first  # BUG: a duplicate counts as a completion
        return first


_MUTANT_QUEUES: dict[str, type[ChunkQueue]] = dict(
    no_reissue=_NoReissue, stop_when_dry=_StopWhenDry, count_duplicates=_CountDuplicates
)


class RbWorker:
    """One worker of the robust self-scheduling plane."""

    def __init__(self, name: str, cfg: RbConfig):
        self.name = name
        self.crashable = name in cfg.crashable

    def init(self) -> Hashable:
        return WLocal(phase="start", unit=None)

    def _request(self, result: int | None) -> Msg:
        return Msg(self.name, MASTER, "rb.request", (result,))

    def steps(
        self, local: Hashable, pending: tuple[Msg, ...]
    ) -> Iterable[Step]:
        s = local
        assert isinstance(s, WLocal)
        if s.phase in ("stopped", "crashed"):
            return

        if s.phase == "start":
            yield Step(
                actor=self.name,
                label="request",
                next_state=s._replace(phase="wait"),
                sends=(self._request(None),),
            )

        if s.phase == "wait":
            for msg in selective(pending, lambda m: m.tag == "rb.work"):
                payload = msg.payload
                assert isinstance(payload, tuple)
                if not payload:
                    yield Step(
                        actor=self.name,
                        label="stop",
                        next_state=s._replace(phase="stopped"),
                        consumed=msg,
                    )
                    continue
                unit = int(payload[0])
                yield Step(
                    actor=self.name,
                    label=f"work(u{unit})",
                    next_state=s._replace(phase="run", unit=unit),
                    consumed=msg,
                )

        if s.phase == "run":
            yield Step(
                actor=self.name,
                label=f"compute(u{s.unit})",
                next_state=WLocal(phase="wait", unit=None),
                sends=(self._request(s.unit),),
            )

        if self.crashable and s.phase in ("start", "run"):
            yield Step(
                actor=self.name,
                label="crash",
                next_state=s._replace(phase="crashed"),
            )


class RbMaster:
    """The central-queue master: an adapter around ``ChunkQueue``."""

    name = MASTER

    def __init__(self, cfg: RbConfig, mutation: str | None):
        self.cfg = cfg
        self.queue_cls = _MUTANT_QUEUES.get(mutation or "", ChunkQueue)

    def init(self) -> Hashable:
        cfg = self.cfg
        chunks = self.queue_cls(
            list(range(cfg.units)), ChunkPolicy(1), cfg.n_workers, cfg.dup_max
        )
        return MLocal(chunks=chunks, stopped=False)

    def steps(
        self, local: Hashable, pending: tuple[Msg, ...]
    ) -> Iterable[Step]:
        s = local
        assert isinstance(s, MLocal)
        for msg in selective(pending, lambda m: m.tag == "rb.request"):
            payload = msg.payload
            assert isinstance(payload, tuple)
            pid = msg.src
            if s.stopped:
                yield Step(
                    actor=self.name,
                    label=f"request({pid}: late, dropped)",
                    next_state=s,
                    consumed=msg,
                )
                continue
            chunks = copy.copy(s.chunks)  # a yielded state never changes
            label = f"request({pid})"
            if payload[0] is not None:
                unit = int(payload[0])
                got = "result" if chunks.record(unit) else "dup"
                label = f"request({pid}, {got}(u{unit}))"
            if chunks.finished():
                yield Step(
                    actor=self.name,
                    label=f"{label}: stop all",
                    next_state=MLocal(chunks, stopped=True),
                    consumed=msg,
                    sends=tuple(
                        Msg(self.name, w, "rb.work", ())
                        for w in self.cfg.worker_names()
                    ),
                )
                continue
            cut = chunks.cut(pid)
            sends = () if cut is None else (Msg(self.name, pid, "rb.work", cut[1]),)
            yield Step(
                actor=self.name,
                label=f"{label}: " + (f"give u{cut[1][0]}" if cut else "wait"),
                next_state=MLocal(chunks, stopped=False),
                consumed=msg,
                sends=sends,
            )


def results_complete(cfg: RbConfig) -> Invariant:
    """Once the master stops, every unit has an accepted result."""

    def check(
        locals_: Mapping[str, Hashable],
        channels: Mapping[tuple[str, str], tuple[Msg, ...]],
    ) -> tuple[str, str] | None:
        master = locals_[MASTER]
        assert isinstance(master, MLocal)
        if not master.stopped:
            return None
        q = master.chunks
        lost = sorted({*q.queue, *(u for us, _ in q.outstanding.values() for u in us)})
        if lost:
            return (
                "RA701",
                f"unit(s) {lost} have no result when the master stops "
                f"(lost by robust self-scheduling)",
            )
        return None

    return check


def build_model(
    cfg: RbConfig | None = None, mutation: str | None = None
) -> Model:
    """Build the robust self-scheduling model for one configuration."""
    cfg = cfg or RbConfig()
    if mutation is not None and mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutation!r}")

    def terminal(locals_: Mapping[str, Hashable]) -> bool:
        master = locals_[MASTER]
        assert isinstance(master, MLocal)
        return master.stopped and all(
            local.phase in ("stopped", "crashed")
            for local in locals_.values()
            if isinstance(local, WLocal)
        )

    def dead_of(locals_: Mapping[str, Hashable]) -> frozenset[str]:
        return frozenset(
            name
            for name, local in locals_.items()
            if isinstance(local, WLocal) and local.phase == "crashed"
        )

    tag = f"rb-P{cfg.n_workers}-u{cfg.units}-d{cfg.dup_max}"
    if cfg.crashable:
        tag += f"-crash[{','.join(cfg.crashable)}]"
    if mutation:
        tag += f"!{mutation}"
    return Model(
        name=tag,
        plane="rb",
        actors=[
            *(RbWorker(name, cfg) for name in cfg.worker_names()),
            RbMaster(cfg, mutation),
        ],
        invariants=[results_complete(cfg)],
        terminal=terminal,
        dead_of=dead_of,
        notes=(
            "one-unit chunks; blocking master, reissue only when the "
            f"queue is dry (dup_max={cfg.dup_max}); fail-stop crashes "
            "with no failure detector"
        ),
    )
