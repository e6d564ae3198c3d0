"""Benchmark workload cells.

Every cell is a module-level function (picklable, so the harness can fan
cells out across worker processes) that runs one self-contained workload
and returns a flat result dict:

- ``metrics``: numeric measurements the baseline gate compares
  (``wall_s`` lower-is-better, ``events_per_sec`` higher-is-better);
- ``meta``: JSON-safe context (problem sizes, simulated-time outcomes)
  that is archived but never gated on.

Simulated-time outcomes (``sim_elapsed``) are deterministic: the harness
warns when they drift from the baseline, which catches accidental
semantic changes that a pure wall-time gate would miss.
"""

from __future__ import annotations

import time
from typing import Any

from ..apps import build_lu, build_matmul, build_sor
from ..config import (
    CheckpointConfig,
    ClusterSpec,
    NetworkSpec,
    ProcessorSpec,
    RunConfig,
)
from ..experiments.common import PAPER_QUANTUM, PAPER_SPEED, run_point
from ..runtime import run_application
from ..scale.crossover import cell_scaling
from ..strategies.robustness import cell_perturbation
from ..sim import Cluster, Compute, ConstantLoad, Recv, Send

__all__ = ["CELLS", "run_cell"]

_BUILDERS = {
    "matmul": lambda n, P, maxiter: build_matmul(n=n, n_slaves_hint=P),
    "sor": lambda n, P, maxiter: build_sor(n=n, maxiter=maxiter, n_slaves_hint=P),
    "lu": lambda n, P, maxiter: build_lu(n=n, n_slaves_hint=P),
}


def _result(wall_s: float, events: int, **meta: Any) -> dict[str, Any]:
    metrics: dict[str, float] = {"wall_s": wall_s}
    if events:
        metrics["events"] = float(events)
        metrics["events_per_sec"] = events / wall_s if wall_s > 0 else 0.0
    return {"metrics": metrics, "meta": meta}


def cell_pingpong(n_messages: int = 5000) -> dict[str, Any]:
    """Two processors exchanging small tagged messages (message path)."""
    spec = ClusterSpec(n_slaves=2, processor=ProcessorSpec(), network=NetworkSpec())
    cluster = Cluster(spec)

    def ping(ctx):
        for i in range(n_messages):
            yield Send(1, "ping", i, 8)
            yield Recv(src=1, tag="pong")

    def pong(ctx):
        for _ in range(n_messages):
            msg = yield Recv(src=0, tag="ping")
            yield Send(0, "pong", msg.payload, 8)

    cluster.spawn(0, ping)
    cluster.spawn(1, pong)
    t0 = time.perf_counter()
    cluster.run()
    wall = time.perf_counter() - t0
    return _result(
        wall,
        cluster.engine.events_processed,
        n_messages=n_messages,
        messages=cluster.message_count,
        sim_elapsed=cluster.engine.now,
    )


def cell_compute_loop(n_chunks: int = 20000) -> dict[str, Any]:
    """One processor issuing many small compute bursts (scheduler path)."""
    cluster = Cluster(ClusterSpec(n_slaves=1))

    def worker(ctx):
        for _ in range(n_chunks):
            yield Compute(1000)

    cluster.spawn(0, worker)
    t0 = time.perf_counter()
    cluster.run()
    wall = time.perf_counter() - t0
    return _result(
        wall,
        cluster.engine.events_processed,
        n_chunks=n_chunks,
        sim_elapsed=cluster.engine.now,
    )


def cell_run(
    app: str,
    n: int,
    P: int,
    maxiter: int = 15,
    dlb: bool = True,
    load_k: int = 0,
    load_pid: int = 0,
) -> dict[str, Any]:
    """One full application run (wall time of a figure-style cell)."""
    plan = _BUILDERS[app](n, P, maxiter)
    loads = {load_pid: ConstantLoad(k=load_k)} if load_k else None
    t0 = time.perf_counter()
    res = run_point(plan, P, loads=loads, dlb=dlb)
    wall = time.perf_counter() - t0
    return _result(
        wall,
        0,
        app=app,
        n=n,
        P=P,
        dlb=dlb,
        load_k=load_k,
        sim_elapsed=res.elapsed,
        speedup=res.speedup,
        messages=res.message_count,
    )


def cell_figure_pair(
    app: str,
    n: int,
    P: int,
    maxiter: int = 15,
    load_k: int = 0,
    load_pid: int = 0,
) -> dict[str, Any]:
    """A static + DLB pair at one processor count (one figure cell).

    ``wall_s`` covers both runs; the simulated outcomes (elapsed times,
    DLB overhead) land in ``meta`` for drift detection.
    """
    loads = {load_pid: ConstantLoad(k=load_k)} if load_k else None
    t0 = time.perf_counter()
    plan = _BUILDERS[app](n, P, maxiter)
    r_sta = run_point(plan, P, loads=dict(loads) if loads else None, dlb=False)
    r_dlb = run_point(plan, P, loads=dict(loads) if loads else None, dlb=True)
    wall = time.perf_counter() - t0
    return _result(
        wall,
        0,
        app=app,
        n=n,
        P=P,
        load_k=load_k,
        sim_elapsed=r_dlb.elapsed,
        sim_elapsed_static=r_sta.elapsed,
        speedup_dlb=r_dlb.speedup,
        dlb_overhead_pct=(
            100.0 * (r_dlb.elapsed - r_sta.elapsed) / r_sta.elapsed
            if r_sta.elapsed > 0
            else 0.0
        ),
    )


def cell_checkpoint(
    app: str, n: int, P: int = 4, placement: str = "master", maxiter: int = 15
) -> dict[str, Any]:
    """Fault-free checkpointing premium: run with ckpt off, then on.

    ``wall_s`` covers the checkpointed run only; the simulated-time
    overhead percentage (the paper-economics number the checkpoint bench
    asserts on) is reported in ``meta``.
    """
    plan = _BUILDERS[app](n, P, maxiter)
    base_cfg = RunConfig(
        cluster=ClusterSpec(
            n_slaves=P,
            processor=ProcessorSpec(speed=PAPER_SPEED, quantum=PAPER_QUANTUM),
        )
    )
    ckpt_cfg = RunConfig(
        cluster=base_cfg.cluster,
        ckpt=CheckpointConfig(enabled=True, placement=placement),
    )
    r_off = run_application(plan, base_cfg, seed=0)
    t0 = time.perf_counter()
    r_on = run_application(plan, ckpt_cfg, seed=0)
    wall = time.perf_counter() - t0
    return _result(
        wall,
        0,
        app=app,
        n=n,
        P=P,
        placement=placement,
        sim_elapsed=r_on.elapsed,
        ckpt_overhead_pct=100.0 * (r_on.elapsed / r_off.elapsed - 1.0),
        epochs_committed=r_on.log.ckpt_epochs_committed,
        snapshots=r_on.log.ckpt_snapshots,
    )


CELLS = {
    "pingpong": cell_pingpong,
    "compute_loop": cell_compute_loop,
    "run": cell_run,
    "figure_pair": cell_figure_pair,
    "checkpoint": cell_checkpoint,
    # Crossover study cell (centralized vs hierarchical vs diffusion at
    # one P x load-regime point); lives with the scale package.
    "scaling": cell_scaling,
    # Perturbation-robustness cell (rate vs stealing vs rdlb at one
    # workload x regime point); lives with the strategies package.
    "perturbation": cell_perturbation,
}


def run_cell(job: dict[str, Any]) -> dict[str, Any]:
    """Worker entry point: run one cell job and stamp identity onto it.

    ``job`` is ``{"suite", "name", "cell", "params"}``; the return value
    is the cell result extended with the identity fields (this is what
    lands in the JSON document's ``cells`` array).
    """
    fn = CELLS[job["cell"]]
    best: dict[str, Any] | None = None
    for _ in range(int(job.get("repeat", 1))):
        out = fn(**job["params"])
        if best is None or out["metrics"]["wall_s"] < best["metrics"]["wall_s"]:
            best = out
    assert best is not None
    best["suite"] = job["suite"]
    best["name"] = job["name"]
    best["cell"] = job["cell"]
    best["params"] = dict(job["params"])
    return best
