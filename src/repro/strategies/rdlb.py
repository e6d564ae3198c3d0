"""rDLB-style robust self-scheduling: the one central-queue runtime.

A master keeps the loop iterations in a central queue and idle workers
request the next chunk (paper Section 6, refs [7]-[10]).  Chunk sizes
come from the classic self-scheduling policies:

- :class:`ChunkPolicy` — fixed-size chunks (chunk self-scheduling).
- :class:`GuidedPolicy` — guided self-scheduling, chunk = ceil(R / P)
  (Polychronopoulos & Kuck).
- :class:`FactoringPolicy` — batches of P equal chunks, each batch half
  the remaining work (Hummel, Schonberg & Flynn).
- :class:`TrapezoidPolicy` — linearly decreasing chunk sizes from
  ``first`` to ``last`` (Tzen & Ni).

The master is hardened the way rDLB (Mohammed et al.) hardens DLS
techniques: it never blocks, watches request traffic as a heartbeat, and
when the queue runs dry while chunks are still outstanding it *reissues*
the oldest outstanding chunk to the next idle requester (bounded
duplication, first result wins).  No rate filtering, no trend
estimation, no movement decisions — robustness against both
perturbation (a slowed worker's chunk is simply finished by someone
else) and fail-stop crashes comes entirely from reissuing work the
master still owns.  With ``dup_max=1`` it is plain self-scheduling plus
crash recovery, which is how the registry runs FSC/GSS/factoring/
trapezoid.

The cost is the self-scheduling cost the paper's iteration-ownership
design avoids — every chunk ships its input data from the master and
returns its results — plus the duplicated compute of reassigned chunks.
The perturbation-robustness bench makes both visible.

Supports PARALLEL_MAP plans (independent iterations) only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from ..compiler.plan import ExecutionPlan
from ..config import RunConfig
from ..errors import ConfigError
from ..faults import FaultPlan
from ..obs import Recorder
from ..runtime.mapplane import MapResult, MapRun, all_reps
from ..sim import Compute, LoadGenerator, Poll, Recv, Send, Sleep
from .protocol import RobustTags

# Module-level alias named `Tags` for the protocol lint's AST resolver.
Tags = RobustTags

__all__ = [
    "ChunkPolicy",
    "GuidedPolicy",
    "FactoringPolicy",
    "TrapezoidPolicy",
    "RdlbConfig",
    "RdlbResult",
    "run_rdlb",
]

_CHUNKINGS = ("fsc", "gss", "factoring", "trapezoid")


class ChunkPolicy:
    """Fixed-size chunking (CSS)."""

    def __init__(self, chunk: int = 1):
        if chunk < 1:
            raise ConfigError(f"chunk must be >= 1, got {chunk}")
        self.chunk = chunk

    def next_chunk(self, remaining: int, n_slaves: int) -> int:
        return min(self.chunk, remaining)


class GuidedPolicy:
    """Guided self-scheduling (GSS): chunk = ceil(remaining / P)."""

    def next_chunk(self, remaining: int, n_slaves: int) -> int:
        return max(1, math.ceil(remaining / n_slaves))


class FactoringPolicy:
    """Factoring: allocate batches of P chunks, each batch covering half
    the remaining iterations."""

    def __init__(self) -> None:
        self._batch_left = 0
        self._batch_chunk = 1

    def next_chunk(self, remaining: int, n_slaves: int) -> int:
        if self._batch_left <= 0:
            self._batch_chunk = max(1, math.ceil(remaining / (2 * n_slaves)))
            self._batch_left = n_slaves
        self._batch_left -= 1
        return min(self._batch_chunk, remaining)


class TrapezoidPolicy:
    """Trapezoid self-scheduling (TSS): chunks decrease linearly."""

    def __init__(self, total: int, n_slaves: int, last: int = 1):
        first = max(1, total // (2 * n_slaves))
        n_steps = max(1, math.ceil(2 * total / (first + last)))
        self._chunk = float(first)
        self._delta = (first - last) / max(1, n_steps - 1)
        self._last = last

    def next_chunk(self, remaining: int, n_slaves: int) -> int:
        c = max(self._last, int(round(self._chunk)))
        self._chunk = max(float(self._last), self._chunk - self._delta)
        return min(max(1, c), remaining)


@dataclass(frozen=True)
class RdlbConfig:
    """Parameters of the robust self-scheduling plane.

    Attributes:
        chunking: chunk-sizing policy — ``"fsc"`` (:class:`ChunkPolicy`),
            ``"gss"`` (:class:`GuidedPolicy`), ``"factoring"``, or
            ``"trapezoid"``.
        chunk: fixed chunk size when ``chunking="fsc"``.
        dup_max: maximum concurrent assignees per chunk (2 = one
            reissue); bounds the duplicated compute.
        reassign_after: how long a chunk may be outstanding before an
            idle requester gets a copy even though the holder still
            looks alive (perturbation robustness: a worker slowed 10x
            by competing load is indistinguishable from a dead one).
        retry_wait: how long a worker with nothing to do waits before
            re-requesting.  Workers are never parked inside the master —
            an idle worker keeps polling, which doubles as its
            heartbeat, so a crash while idle is still detected.
        dead_after: request-traffic silence before a worker is declared
            dead and its assignments freed for reassignment.
        tick: master poll-loop sleep between empty polls.
        hard_stall: give-up bound once every unstopped worker is
            declared dead.  A chunk may legitimately outlast
            ``dead_after`` (a slow or loaded worker looks dead while it
            computes), so the master keeps waiting; only when every dead
            worker has been silent for more than ``hard_stall`` does it
            stop and report the unfinished units lost.
    """

    chunking: str = "factoring"
    chunk: int = 8
    dup_max: int = 2
    reassign_after: float = 2.0
    retry_wait: float = 0.2
    dead_after: float = 4.0
    tick: float = 0.02
    hard_stall: float = 60.0

    def __post_init__(self) -> None:
        if self.chunking not in _CHUNKINGS:
            raise ConfigError(
                f"chunking must be one of {', '.join(_CHUNKINGS)}, "
                f"got {self.chunking!r}"
            )
        if self.chunk < 1:
            raise ConfigError(f"chunk must be >= 1, got {self.chunk}")
        if self.dup_max < 1:
            raise ConfigError(f"dup_max must be >= 1, got {self.dup_max}")
        if self.reassign_after <= 0 or self.dead_after <= 0:
            raise ConfigError("reassign_after and dead_after must be positive")
        if self.retry_wait <= 0 or self.retry_wait >= self.dead_after:
            raise ConfigError("retry_wait must be positive and < dead_after")
        if self.tick <= 0:
            raise ConfigError("tick must be positive")
        if self.hard_stall <= self.dead_after:
            raise ConfigError("hard_stall must exceed dead_after")


@dataclass(kw_only=True)
class RdlbResult(MapResult):
    """Outcome and metrics of one robust self-scheduling run."""

    chunking: str
    chunks_served: int
    reassigns: int
    duplicate_results: int
    completed_units: int

    def summary(self) -> str:
        lost = f" lost={self.lost_units}" if self.lost_units else ""
        return (
            f"{self.name}: P={self.n_slaves} ({self.chunking}) "
            f"elapsed={self.elapsed:.2f}s speedup={self.speedup:.2f} "
            f"chunks={self.chunks_served} reassigns={self.reassigns} "
            f"deaths={self.deaths}{lost} msgs={self.message_count}"
        )


def _make_policy(rc: RdlbConfig, total: int, n_slaves: int):
    if rc.chunking == "fsc":
        return ChunkPolicy(rc.chunk)
    if rc.chunking == "gss":
        return GuidedPolicy()
    if rc.chunking == "trapezoid":
        return TrapezoidPolicy(total, n_slaves)
    return FactoringPolicy()


class _Chunk:
    """Master-side state of one outstanding chunk."""

    __slots__ = ("units", "assignees", "issued_at")

    def __init__(self, units: tuple[int, ...], pid: int, now: float):
        self.units = units
        self.assignees = {pid}
        self.issued_at = now


def _rdlb_worker(ctx, plan: ExecutionPlan, rc: RdlbConfig):
    master = ctx.master_pid
    report: dict[str, Any] | None = None
    while True:
        yield Send(master, Tags.REQUEST, report, 32)
        msg = yield Recv(src=master, tag=Tags.WORK)
        report = None
        units = msg.payload["units"]
        if not units:
            if msg.payload.get("retry"):
                # Nothing to hand out right now; keep polling (this is
                # also the idle worker's heartbeat).
                yield Sleep(rc.retry_wait)
                continue
            return
        # The chunk's input data arrives only when numerics run.
        local = msg.payload.get("data")
        ops, fn = all_reps(plan, units, local)
        yield Compute(ops, fn=fn)
        report = {"chunk": msg.payload["chunk"], "units": units}
        if local is not None:
            report["data"] = plan.kernels.local_result(local)


def _rdlb_master(
    ctx,
    plan: ExecutionPlan,
    rc: RdlbConfig,
    exec_num: bool,
    global_state,
    n_workers: int,
    stats: dict,
    sink: dict,
):
    obs = ctx.obs
    kernels = plan.kernels
    lo, hi = plan.unit_space()
    total = hi - lo
    queue = list(range(lo, hi))
    policy = _make_policy(rc, total, n_workers)
    now = ctx.now
    outstanding: dict[int, _Chunk] = {}
    next_chunk = 0
    done_units = 0
    chunks_served = 0
    results: dict[int, list] = {p: [] for p in range(n_workers)}
    last_heard = {pid: now for pid in range(n_workers)}
    dead: set[int] = set()
    stopped: set[int] = set()

    def _cut(pid: int, now: float):
        """Issue the next queue chunk, or reissue an outstanding one."""
        nonlocal next_chunk, chunks_served
        if queue:
            size = policy.next_chunk(len(queue), n_workers)
            units, del_ = tuple(queue[:size]), queue[:size]
            del queue[: len(del_)]
            cid = next_chunk
            next_chunk += 1
            outstanding[cid] = _Chunk(units, pid, now)
            chunks_served += 1
            return cid, units
        # Queue dry: reissue the oldest eligible outstanding chunk.
        best: int | None = None
        for cid, ch in outstanding.items():
            if pid in ch.assignees or len(ch.assignees) >= rc.dup_max:
                continue
            live_holders = [a for a in ch.assignees if a not in dead]
            if live_holders and now - ch.issued_at <= rc.reassign_after:
                continue  # holder looks healthy and recent; don't duplicate
            if best is None or ch.issued_at < outstanding[best].issued_at:
                best = cid
        if best is None:
            return None
        ch = outstanding[best]
        ch.assignees.add(pid)
        stats["reassigns"] = stats.get("reassigns", 0) + 1
        if obs.enabled:
            obs.metrics.counter("robust.reassigns").inc()
            obs.emit_counter(
                "robust", "reassign", now, float(len(ch.units)),
                pid=ctx.pid, meta={"chunk": best, "to": pid},
            )
        return best, ch.units

    def _serve(pid: int, now: float):
        """Answer one request: work, a reissue, retry-later, or stop."""
        cut = _cut(pid, now)
        if cut is None:
            if done_units >= total or (queue == [] and not outstanding):
                stopped.add(pid)
                yield Send(pid, Tags.WORK, {"chunk": -1, "units": ()}, 16)
            else:
                # No chunk to give (all outstanding ones are held by
                # live recent workers); tell the worker to poll again.
                yield Send(
                    pid, Tags.WORK, {"chunk": -1, "units": (), "retry": True}, 16
                )
            return
        cid, units = cut
        payload: dict[str, Any] = {"chunk": cid, "units": units}
        if exec_num:
            payload["data"] = kernels.make_local(global_state, np.asarray(units))
        nbytes = (
            kernels.input_bytes(len(units))
            if exec_num
            else len(units) * plan.movement.unit_bytes
        )
        yield Send(pid, Tags.WORK, payload, nbytes)

    while len(stopped) < n_workers:
        if len(stopped | dead) == n_workers and (
            (not queue and not outstanding)
            or all(now - last_heard[pid] > rc.hard_stall for pid in dead)
        ):
            # Every unstopped worker is dead.  A dead verdict may be
            # false (a chunk can outlast dead_after), so unfinished work
            # is given up only after hard_stall of total silence.
            break
        msg = yield Poll(tag=Tags.REQUEST)
        now = ctx.now
        if msg is not None:
            pid = msg.src
            last_heard[pid] = now
            dead.discard(pid)  # a false positive resurfaces harmlessly
            p = msg.payload
            if p is not None:
                cid = int(p["chunk"])
                ch = outstanding.pop(cid, None)
                if ch is not None:
                    done_units += len(ch.units)
                    results[pid].append((p["units"], p.get("data")))
                else:
                    # The other assignee finished first: duplicate result.
                    stats["duplicates"] = stats.get("duplicates", 0) + 1
                    if obs.enabled:
                        obs.metrics.counter("robust.duplicates").inc()
            yield from _serve(pid, now)
        else:
            yield Sleep(rc.tick)
        now = ctx.now
        for pid in range(n_workers):
            if (
                pid not in dead
                and pid not in stopped
                and now - last_heard[pid] > rc.dead_after
            ):
                dead.add(pid)
                stats["deaths"] = stats.get("deaths", 0) + 1
                for ch in outstanding.values():
                    ch.assignees.discard(pid)
                if obs.enabled:
                    obs.metrics.counter("robust.deaths").inc()
                    obs.emit_counter(
                        "robust", "death", now, 1.0, pid=ctx.pid,
                        meta={"dead": pid},
                    )

    # Late stop broadcast: the silence detector cannot distinguish a
    # crashed worker from a live one stuck in a long compute (a
    # heavy-tailed unit under competing load can exceed dead_after).  A
    # falsely-dead worker finishes eventually, sends one more REQUEST,
    # and blocks in Recv — queue a stop reply now so that Recv
    # terminates it.  Sends to genuinely crashed pids are dropped.
    for pid in range(n_workers):
        if pid not in stopped:
            yield Send(pid, Tags.WORK, {"chunk": -1, "units": ()}, 16)

    lost = len(queue) + sum(len(ch.units) for ch in outstanding.values())
    stats["lost_units"] = lost
    if lost and obs.enabled:
        obs.metrics.counter("robust.lost_units").inc(lost)
    stats["chunks"] = chunks_served
    stats["done_units"] = done_units
    sink["results"] = results


def run_rdlb(
    plan: ExecutionPlan,
    run_cfg: RunConfig | None = None,
    loads: Mapping[int, LoadGenerator] | None = None,
    *,
    rdlb: RdlbConfig | None = None,
    seed: int = 0,
    recorder: Recorder | None = None,
    faults: FaultPlan | None = None,
) -> RdlbResult:
    """Run ``plan`` under rDLB-style robust self-scheduling."""
    run_cfg = run_cfg or RunConfig()
    rc = rdlb or RdlbConfig()
    mr = MapRun(
        "robust self-scheduling",
        plan,
        run_cfg,
        loads,
        seed=seed,
        recorder=recorder,
        faults=faults,
    )
    stats = mr.stats
    for pid in range(mr.n):
        mr.cluster.spawn(pid, _rdlb_worker, plan, rc)
    mr.cluster.spawn(
        run_cfg.cluster.master_pid,
        _rdlb_master,
        plan,
        rc,
        mr.exec_num,
        mr.global_state,
        mr.n,
        stats,
        mr.sink,
    )
    mr.run()
    # One part per accepted chunk: accepted chunks are disjoint
    # (duplicates were discarded on receipt), so chunk granularity
    # composes for every app regardless of payload type.
    return mr.finish(
        RdlbResult,
        [part for parts in mr.sink["results"].values() for part in parts],
        chunking=rc.chunking,
        chunks_served=stats.get("chunks", 0),
        reassigns=stats.get("reassigns", 0),
        duplicate_results=stats.get("duplicates", 0),
        completed_units=stats.get("done_units", 0),
        lost_units=stats.get("lost_units", 0),
        deaths=stats.get("deaths", 0),
    )
