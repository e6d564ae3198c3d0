"""Central task-queue self-scheduling (paper Section 6, refs [7]-[10]).

A master keeps the loop iterations in a central queue; idle slaves
request the next chunk.  Chunking policies:

- :class:`ChunkPolicy` — fixed-size chunks (chunk self-scheduling).
- :class:`GuidedPolicy` — guided self-scheduling, chunk = ceil(R / P)
  (Polychronopoulos & Kuck).
- :class:`FactoringPolicy` — batches of P equal chunks, each batch half
  the remaining work (Hummel, Schonberg & Flynn).
- :class:`TrapezoidPolicy` — linearly decreasing chunk sizes from
  ``first`` to ``last`` (Tzen & Ni).

These schemes were designed for shared memory: the "queue access" there
is a cheap atomic op.  On a distributed-memory cluster each chunk must
also carry its input data from the master and return its results, which
is the locality cost the paper's iteration-ownership design avoids —
the comparison benchmark makes that cost visible.

Only PARALLEL_MAP-shaped plans (independent iterations, e.g. MM) are
supported, which mirrors the self-scheduling literature's assumption of
independent loop iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from ..compiler.plan import ExecutionPlan, LoopShape
from ..config import RunConfig
from ..errors import ProtocolError
from ..sim import Cluster, Compute, LoadGenerator, Recv, Send
from ..sim.rusage import RusageReport

__all__ = [
    "ChunkPolicy",
    "GuidedPolicy",
    "FactoringPolicy",
    "TrapezoidPolicy",
    "SelfSchedResult",
    "run_self_scheduling",
]


class ChunkPolicy:
    """Fixed-size chunking (CSS)."""

    def __init__(self, chunk: int = 1):
        if chunk < 1:
            raise ProtocolError(f"chunk must be >= 1, got {chunk}")
        self.chunk = chunk

    name = "chunk"

    def next_chunk(self, remaining: int, n_slaves: int) -> int:
        return min(self.chunk, remaining)


class GuidedPolicy:
    """Guided self-scheduling (GSS): chunk = ceil(remaining / P)."""

    name = "guided"

    def next_chunk(self, remaining: int, n_slaves: int) -> int:
        return max(1, math.ceil(remaining / n_slaves))


class FactoringPolicy:
    """Factoring: allocate batches of P chunks, each batch covering half
    the remaining iterations."""

    name = "factoring"

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

    name = "trapezoid"

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


@dataclass
class SelfSchedResult:
    """Metrics of one self-scheduling run (mirrors RunResult fields)."""

    name: str
    policy: str
    n_slaves: int
    elapsed: float
    sequential_time: float
    rusage: RusageReport
    message_count: int
    bytes_sent: int
    chunks_served: int
    result: Any = None

    @property
    def speedup(self) -> float:
        return self.sequential_time / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def efficiency(self) -> float:
        return self.rusage.efficiency(self.sequential_time, list(range(self.n_slaves)))


_REQ = "ss.request"
_WORK = "ss.work"
_DONE_CHUNK = "ss.chunkdone"


def _ss_master(ctx, plan: ExecutionPlan, policy, exec_num: bool, global_state, sink):
    n = ctx.n_slaves
    lo, hi = plan.unit_space()
    queue = list(range(lo, hi))
    kernels = plan.kernels
    chunks_served = 0
    live = n
    results: dict[int, list] = {p: [] for p in range(n)}
    while live > 0:
        msg = yield Recv(tag=_REQ)
        pid = msg.src
        if msg.payload is not None and msg.payload.get("data") is not None:
            units, data = msg.payload["units"], msg.payload["data"]
            results[pid].append((units, data))
        elif msg.payload is not None and "units" in msg.payload:
            results[pid].append((msg.payload["units"], None))
        if not queue:
            yield Send(pid, _WORK, {"units": ()}, 16)
            live -= 1
            continue
        size = policy.next_chunk(len(queue), n)
        chunk, queue = queue[:size], queue[size:]
        payload: dict[str, Any] = {"units": tuple(chunk)}
        if exec_num:
            payload["data"] = kernels.make_local(global_state, np.asarray(chunk))
        nbytes = (
            kernels.input_bytes(len(chunk))
            if exec_num
            else len(chunk) * plan.movement.unit_bytes
        )
        chunks_served += 1
        yield Send(pid, _WORK, payload, nbytes)
    sink["chunks"] = chunks_served
    sink["results"] = results


def _ss_slave(ctx, plan: ExecutionPlan, exec_num: bool):
    kernels = plan.kernels
    master = ctx.master_pid
    pending_report: dict[str, Any] | None = None
    while True:
        yield Send(master, _REQ, pending_report, 32)
        msg = yield Recv(src=master, tag=_WORK)
        units = msg.payload["units"]
        if not units:
            return
        arr = np.asarray(units)
        local = msg.payload.get("data")
        ops = plan.units_cost(0, units)

        def _do(local=local, arr=arr):
            kernels.run_units(local, 0, arr)

        yield Compute(ops, fn=_do if exec_num and local is not None else None)
        report: dict[str, Any] = {"units": units}
        if exec_num and local is not None:
            report["data"] = kernels.local_result(local)
        # The chunk's results travel back with the next request.
        pending_report = report


def run_self_scheduling(
    plan: ExecutionPlan,
    run_cfg: RunConfig,
    policy,
    loads: Mapping[int, LoadGenerator] | None = None,
    seed: int = 0,
) -> SelfSchedResult:
    """Run ``plan`` under central-queue self-scheduling."""
    if plan.shape is not LoopShape.PARALLEL_MAP:
        raise ProtocolError(
            "self-scheduling baseline supports independent iterations only"
        )
    cluster = Cluster(run_cfg.cluster, dict(loads or {}))
    exec_num = run_cfg.execute_numerics
    rng = np.random.default_rng(seed)
    global_state = plan.kernels.make_global(rng) if exec_num else None
    sink: dict[str, Any] = {}
    for pid in range(run_cfg.cluster.n_slaves):
        cluster.spawn(pid, _ss_slave, plan, exec_num)
    cluster.spawn(
        run_cfg.cluster.master_pid,
        _ss_master,
        plan,
        policy,
        exec_num,
        global_state,
        sink,
    )
    cluster.run()
    elapsed = max(
        cluster.task_finish_time(p) for p in range(run_cfg.cluster.n_processors)
    )
    result = None
    if exec_num:
        merged: dict[int, Any] = {}
        for pid, items in sink["results"].items():
            units = [u for us, _ in items for u in us]
            datas = [d for _, d in items if d is not None]
            if datas:
                # Per-chunk result matrices are zero outside their own
                # rows, so summing merges them.
                total = datas[0]
                for d in datas[1:]:
                    total = total + d
                merged[pid] = (np.asarray(units), total)
        result = plan.kernels.merge_results(global_state, merged) if merged else None
    return SelfSchedResult(
        name=plan.name,
        policy=policy.name,
        n_slaves=run_cfg.cluster.n_slaves,
        elapsed=elapsed,
        sequential_time=plan.total_ops() / run_cfg.cluster.processor.speed,
        rusage=cluster.rusage(elapsed),
        message_count=cluster.message_count,
        bytes_sent=cluster.bytes_sent,
        chunks_served=sink.get("chunks", 0),
        result=result,
    )
