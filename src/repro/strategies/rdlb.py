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
techniques, with no failure detector and no clock: it blocks on
requests, and a request that finds the queue dry gets a copy of the
oldest outstanding chunk (bounded duplication, first result wins).  A
requester with nothing to take gets no reply and waits for the final
stop.  No rate filtering, no trend estimation, no movement decisions —
robustness against both perturbation (a slowed worker's chunk is simply
finished by someone else) and fail-stop crashes comes entirely from
reissuing work the master still owns.  The strategy name fixes both
choices: ``rdlb`` cuts factoring chunks and lets a chunk have two
holders, so it survives one holder crash; ``fsc``, ``gss``,
``factoring`` and ``trapezoid`` cut their own chunks and keep one
holder, which is plain self-scheduling: they never reissue and so
refuse crash plans.

The cost is the self-scheduling cost the paper's iteration-ownership
design avoids — every chunk ships its input data from the master and
returns its results — plus the duplicated compute of reassigned chunks.
The perturbation-robustness bench makes both visible.

Supports PARALLEL_MAP plans (independent iterations) only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Hashable, Mapping

import numpy as np

from ..compiler.plan import ExecutionPlan
from ..config import RunConfig
from ..errors import ConfigError
from ..faults import FaultPlan
from ..obs import Recorder
from ..runtime.mapplane import MapResult, MapRun, all_reps
from ..sim import Compute, LoadGenerator, Recv, Send
from .protocol import RobustTags

# Module-level alias named `Tags` for the protocol lint's AST resolver.
Tags = RobustTags

__all__ = [
    "ChunkPolicy",
    "ChunkQueue",
    "GuidedPolicy",
    "FactoringPolicy",
    "TrapezoidPolicy",
    "RdlbResult",
    "run_rdlb",
]

#: Chunk size of fixed-size chunk self-scheduling (``fsc``).
FSC_CHUNK = 8


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


@dataclass(kw_only=True)
class RdlbResult(MapResult):
    """Outcome and metrics of one robust self-scheduling run."""

    chunking: str
    chunks_served: int
    reassigns: int
    duplicate_results: int
    completed_units: int

    def summary(self) -> str:
        return (
            f"{self.name}: P={self.n_slaves} ({self.chunking}) "
            f"elapsed={self.elapsed:.2f}s speedup={self.speedup:.2f} "
            f"chunks={self.chunks_served} reassigns={self.reassigns} "
            f"msgs={self.message_count}"
        )


#: strategy name -> (chunking, most holders a chunk may have).
_SCHEDULES = {
    "rdlb": ("factoring", 2),
    "fsc": ("fsc", 1),
    "gss": ("gss", 1),
    "factoring": ("factoring", 1),
    "trapezoid": ("trapezoid", 1),
}


def _make_policy(chunking: str, total: int, n_slaves: int):
    if chunking == "fsc":
        return ChunkPolicy(FSC_CHUNK)
    if chunking == "gss":
        return GuidedPolicy()
    if chunking == "trapezoid":
        return TrapezoidPolicy(total, n_slaves)
    return FactoringPolicy()


@dataclass
class ChunkQueue:
    """The master's decisions, apart from its messages: the next policy
    chunk, else (the queue dry) a copy of the oldest outstanding chunk
    the requester does not hold and that has fewer than ``dup_max``
    holders, else nothing; the first result per chunk wins.
    ``_rdlb_master`` and the ``rb`` model both run it: it hashes by value
    and ``copy.copy`` gives a copy that shares only the policy."""

    queue: list[int]  # units not yet cut, in issue order
    policy: Any
    n_workers: int
    dup_max: int
    # Chunk id -> (units, holders), in issue order: oldest first.
    outstanding: dict[int, tuple] = field(default_factory=dict)
    served: int = 0  # chunks cut
    done: int = 0  # chunks whose first result is in

    def __hash__(self) -> int:
        return hash((tuple(self.queue), frozenset(self.outstanding.items()), self.done))

    def __copy__(self) -> ChunkQueue:
        return replace(self, queue=self.queue[:], outstanding=dict(self.outstanding))

    def cut(self, pid: Hashable) -> tuple[int, tuple[int, ...]] | None:
        """The next policy chunk for ``pid``, else :meth:`reissue`."""
        if not self.queue:
            return self.reissue(pid)
        size = self.policy.next_chunk(len(self.queue), self.n_workers)
        cid, units = self.served, tuple(self.queue[:size])
        del self.queue[:size]
        self.served += 1
        self.outstanding[cid] = (units, frozenset({pid}))
        return cid, units

    def reissue(self, pid: Hashable) -> tuple[int, tuple[int, ...]] | None:
        """A copy of the oldest outstanding chunk ``pid`` does not hold
        and that has fewer than ``dup_max`` holders, else None."""
        for cid, (units, holders) in self.outstanding.items():
            if pid not in holders and len(holders) < self.dup_max:
                self.outstanding[cid] = (units, holders | {pid})
                return cid, units
        return None

    def record(self, cid: int) -> bool:
        """Take in a result for chunk ``cid``: whether it is the first."""
        if self.outstanding.pop(cid, None) is None:
            return False  # another holder's result arrived first
        self.done += 1
        return True

    def finished(self) -> bool:
        """Whether every unit's result is in."""
        return not self.queue and self.done >= self.served


def _rdlb_worker(ctx, plan: ExecutionPlan):
    master = ctx.master_pid
    report: dict[str, Any] | None = None
    while True:
        yield Send(master, Tags.REQUEST, report, 32)
        msg = yield Recv(src=master, tag=Tags.WORK)
        units = msg.payload["units"]
        if not units:
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
    chunking: str,
    dup_max: int,
    exec_num: bool,
    global_state,
    n_workers: int,
    stats: dict,
    sink: dict,
):
    obs = ctx.obs
    kernels = plan.kernels
    lo, hi = plan.unit_space()
    policy = _make_policy(chunking, hi - lo, n_workers)
    chunks = ChunkQueue(list(range(lo, hi)), policy, n_workers, dup_max)
    results: dict[int, list] = {p: [] for p in range(n_workers)}

    while not chunks.finished():
        msg = yield Recv(tag=Tags.REQUEST)
        pid, report = msg.src, msg.payload
        if report is not None:
            if chunks.record(int(report["chunk"])):
                results[pid].append((report["units"], report.get("data")))
            else:
                stats["duplicates"] = stats.get("duplicates", 0) + 1
                if obs.enabled:
                    obs.metrics.counter("robust.duplicates").inc()
        reissue = not chunks.queue
        cut = chunks.cut(pid)
        if cut is None:
            continue  # nothing to take: wait for the final stop
        cid, units = cut
        if reissue:
            stats["reassigns"] = stats.get("reassigns", 0) + 1
            if obs.enabled:
                obs.metrics.counter("robust.reassigns").inc()
                obs.emit_counter(
                    "robust", "reassign", ctx.now, float(len(units)),
                    pid=ctx.pid, meta={"chunk": cid, "to": pid},
                )
        payload: dict[str, Any] = {"chunk": cid, "units": units}
        if exec_num:
            payload["data"] = kernels.make_local(global_state, np.asarray(units))
        nbytes = (
            kernels.input_bytes(len(units))
            if exec_num
            else len(units) * plan.movement.unit_bytes
        )
        yield Send(pid, Tags.WORK, payload, nbytes)

    # Every unit's result is in.  Workers still computing a copy find
    # the stop waiting when they next request; sends to crashed pids
    # are dropped.
    for pid in range(n_workers):
        yield Send(pid, Tags.WORK, {"chunk": -1, "units": ()}, 16)
    stats["chunks"] = chunks.served
    stats["done_units"] = hi - lo
    sink["results"] = results


def run_rdlb(
    plan: ExecutionPlan,
    run_cfg: RunConfig | None = None,
    loads: Mapping[int, LoadGenerator] | None = None,
    *,
    strategy: str = "rdlb",
    seed: int = 0,
    recorder: Recorder | None = None,
    faults: FaultPlan | None = None,
) -> RdlbResult:
    """Run ``plan`` under the central-queue ``strategy``: ``rdlb`` or
    one of the classic self-scheduling variants it hardens (``fsc``,
    ``gss``, ``factoring``, ``trapezoid``).

    The classics never reissue a chunk, so a crashed holder's chunk
    could never finish: a fault plan with crashes is then a
    :class:`ConfigError`.
    """
    run_cfg = run_cfg or RunConfig()
    if strategy not in _SCHEDULES:
        raise ConfigError(
            f"unknown self-scheduling strategy {strategy!r}; "
            f"choose from {', '.join(_SCHEDULES)}"
        )
    chunking, dup_max = _SCHEDULES[strategy]
    if dup_max == 1 and faults is not None and faults.crashes:
        raise ConfigError(
            f"{chunking} self-scheduling never reissues a chunk "
            "(dup_max=1), so a crashed worker's chunk would be lost; "
            "crash plans need dup_max >= 2 (the rdlb strategy)"
        )
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
        mr.cluster.spawn(pid, _rdlb_worker, plan)
    mr.cluster.spawn(
        run_cfg.cluster.master_pid,
        _rdlb_master,
        plan,
        chunking,
        dup_max,
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
        chunking=chunking,
        chunks_served=stats.get("chunks", 0),
        reassigns=stats.get("reassigns", 0),
        duplicate_results=stats.get("duplicates", 0),
        completed_units=stats.get("done_units", 0),
    )
