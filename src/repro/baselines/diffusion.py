"""Near-neighbour diffusion load balancing (paper Section 6, refs [16][17]).

No central balancer makes *placement* decisions: periodically each slave
exchanges its remaining-work count with its topology neighbours and
shifts iterations toward the lighter side when the imbalance exceeds a
threshold.  Decisions use only local information, so load gradients take
multiple exchange rounds to propagate across the network — the latency
the paper's global-information design avoids.

By default slaves form a chain (the original baseline); passing a
:class:`~repro.config.TopologySpec` (or setting one on the cluster spec)
makes the exchange graph topology-aware — ring, 2-D mesh, fat-tree, or
WAN-linked two-cluster neighbour sets from :mod:`repro.sim.network` —
and prices every message over the topology's routed links.

A passive coordinator only *detects termination* (it counts completed
units and broadcasts a stop notice) and gathers results; it takes no
balancing decisions, preserving the decentralised character.

Supports PARALLEL_MAP plans (independent iterations), as the diffusion
literature assumes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

import numpy as np

from ..compiler.plan import ExecutionPlan, LoopShape
from ..config import RunConfig, TopologySpec
from ..errors import ConfigError, SimulationError
from ..sim import Cluster, Compute, LoadGenerator, Poll, Recv, Send, Sleep
from ..sim.network import build_topology
from ..sim.rusage import RusageReport
from ..runtime.partition import proportional_counts

__all__ = ["DiffusionResult", "run_diffusion"]

_LOADINFO = "diff.load"
_WORK = "diff.work"
_PROGRESS = "diff.progress"
_TERM = "diff.term"
_RESULT = "diff.result"


@dataclass
class DiffusionResult:
    name: str
    n_slaves: int
    elapsed: float
    sequential_time: float
    rusage: RusageReport
    message_count: int
    bytes_sent: int
    moves: int
    units_moved: int
    result: Any = None
    topology: str = "chain"

    @property
    def speedup(self) -> float:
        return self.sequential_time / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def efficiency(self) -> float:
        return self.rusage.efficiency(self.sequential_time, list(range(self.n_slaves)))


def _diff_slave(
    ctx,
    plan: ExecutionPlan,
    exec_num: bool,
    init_units: tuple[int, ...],
    local,
    neighbors: tuple[int, ...],
    exchange_every: int,
    threshold: int,
    stats: dict,
):
    kernels = plan.kernels
    pid = ctx.pid
    pending = sorted(init_units)
    done_units: list[int] = []
    unreported = 0
    counter = 0
    neighbor_load: dict[int, int] = {}
    terminated = False

    def intake():
        """Non-blocking intake of load info, shifted work, termination."""
        nonlocal terminated
        while True:
            msg = yield Poll(tag=_LOADINFO)
            if msg is None:
                break
            neighbor_load[msg.src] = msg.payload
        while True:
            msg = yield Poll(tag=_WORK)
            if msg is None:
                break
            units = list(msg.payload["units"])
            if exec_num and msg.payload.get("data") is not None:
                kernels.unpack_units(local, np.asarray(units), msg.payload["data"], {})
            pending.extend(units)
            pending.sort()
            stats["received"] = stats.get("received", 0) + len(units)
        msg = yield Poll(tag=_TERM)
        if msg is not None:
            terminated = True

    def exchange():
        """Advertise load, report progress, shift work if imbalanced."""
        nonlocal pending, unreported
        for nb in neighbors:
            yield Send(nb, _LOADINFO, len(pending), 16)
        if unreported:
            yield Send(ctx.master_pid, _PROGRESS, unreported, 16)
            unreported = 0
        yield from intake()
        for nb in neighbors:
            their = neighbor_load.get(nb)
            if their is None:
                continue
            excess = (len(pending) - their) // 2
            if excess >= threshold and excess <= len(pending):
                # Shift contiguous index ranges toward the neighbour:
                # higher-numbered neighbours take the tail, lower ones
                # the head (preserves locality on chains and rings).
                give = pending[-excess:] if nb > pid else pending[:excess]
                pending = pending[:-excess] if nb > pid else pending[excess:]
                payload: dict[str, Any] = {"units": tuple(give)}
                if exec_num:
                    payload["data"] = kernels.pack_units(local, np.asarray(give), {})
                yield Send(nb, _WORK, payload, len(give) * plan.movement.unit_bytes)
                stats["moves"] = stats.get("moves", 0) + 1
                stats["moved_units"] = stats.get("moved_units", 0) + len(give)
                neighbor_load[nb] = their + len(give)

    while not terminated:
        yield from intake()
        if terminated:
            break
        if not pending:
            # Idle: let neighbours see a zero load, then wait for work or
            # the termination notice.
            yield from exchange()
            if not pending and not terminated:
                yield Sleep(0.02)
            continue
        u = pending.pop(0)
        arr = np.array([u])
        yield Compute(
            plan.unit_cost(0, u),
            fn=(lambda: kernels.run_units(local, 0, arr)) if exec_num else None,
        )
        done_units.append(u)
        unreported += 1
        counter += 1
        if counter % exchange_every == 0:
            yield from exchange()

    if unreported:
        yield Send(ctx.master_pid, _PROGRESS, unreported, 16)
    payload = {"units": tuple(done_units)}
    if exec_num:
        payload["data"] = kernels.local_result(local)
    nbytes = kernels.result_bytes(len(done_units)) if exec_num else 64
    yield Send(ctx.master_pid, _RESULT, payload, nbytes)


def _diff_master(ctx, n_slaves: int, total_units: int, sink: dict):
    """Passive coordinator: termination detection + gather only."""
    done = 0
    while done < total_units:
        msg = yield Recv(tag=_PROGRESS)
        done += msg.payload
    for pid in range(n_slaves):
        yield Send(pid, _TERM, None, 16)
    results = {}
    for _ in range(n_slaves):
        msg = yield Recv(tag=_RESULT)
        results[msg.src] = msg.payload
    sink["results"] = results


def run_diffusion(
    plan: ExecutionPlan,
    run_cfg: RunConfig,
    loads: Mapping[int, LoadGenerator] | None = None,
    exchange_every: int = 2,
    threshold: int = 2,
    seed: int = 0,
    topology: TopologySpec | None = None,
) -> DiffusionResult:
    """Run ``plan`` under near-neighbour diffusion balancing.

    ``topology`` (or ``run_cfg.cluster.topology``) selects the exchange
    graph and prices messages over the topology's links; with neither,
    slaves form the legacy chain over a crossbar.
    """
    if plan.shape is not LoopShape.PARALLEL_MAP:
        raise ConfigError(
            "diffusion baseline supports PARALLEL_MAP plans (independent "
            f"iterations) only; plan {plan.name!r} has shape "
            f"{plan.shape.name}. PIPELINE and REDUCTION_FRONT loops need "
            "the central runtime (repro.runtime.run_application)."
        )
    n = run_cfg.cluster.n_slaves
    loads = dict(loads or {})
    for pid in loads:
        if not 0 <= pid < n:
            raise ConfigError(f"competing load assigned to non-worker pid {pid}")
    topo_spec = topology if topology is not None else run_cfg.cluster.topology
    cluster_spec = run_cfg.cluster
    neighbor_map: dict[int, tuple[int, ...]] | None = None
    topo_name = "chain"
    if topo_spec is not None:
        if topo_spec.n_members is None:
            topo_spec = replace(topo_spec, n_members=n)
        topo = build_topology(topo_spec, topo_spec.n_members, cluster_spec.network)
        neighbor_map = {pid: topo.neighbors(pid) for pid in range(n)}
        cluster_spec = replace(cluster_spec, topology=topo_spec)
        topo_name = topo_spec.kind
    cluster = Cluster(cluster_spec, loads)
    exec_num = run_cfg.execute_numerics
    rng = np.random.default_rng(seed)
    global_state = plan.kernels.make_global(rng) if exec_num else None
    lo, hi = plan.unit_space()
    counts = proportional_counts(hi - lo, [1.0] * n, minimum=1)
    stats: dict[str, int] = {}
    sink: dict[str, Any] = {}
    start = lo
    for pid in range(n):
        units = tuple(range(start, start + counts[pid]))
        start += counts[pid]
        local = (
            plan.kernels.make_local(global_state, np.asarray(units))
            if exec_num
            else None
        )
        if neighbor_map is not None:
            neighbors = neighbor_map[pid]
        else:  # legacy chain
            neighbors = tuple(
                nb for nb in (pid - 1, pid + 1) if 0 <= nb < n
            )
        cluster.spawn(
            pid, _diff_slave, plan, exec_num, units, local, neighbors,
            exchange_every, threshold, stats,
        )
    cluster.spawn(run_cfg.cluster.master_pid, _diff_master, n, hi - lo, sink)
    cluster.run(until=run_cfg.max_virtual_time)
    if "results" not in sink:
        if cluster.engine.pending():
            raise SimulationError(
                "diffusion run exceeded "
                f"max_virtual_time={run_cfg.max_virtual_time}"
            )
        cluster.run()  # surfaces DeadlockError diagnostics
        raise SimulationError("coordinator never gathered results")
    elapsed = max(
        cluster.task_finish_time(p) for p in range(run_cfg.cluster.n_processors)
    )
    result = None
    if exec_num:
        merged = {
            pid: (np.asarray(res["units"]), res.get("data"))
            for pid, res in sink["results"].items()
            if res.get("data") is not None and len(res["units"])
        }
        result = plan.kernels.merge_results(global_state, merged)
    return DiffusionResult(
        name=plan.name,
        n_slaves=n,
        elapsed=elapsed,
        sequential_time=plan.total_ops() / run_cfg.cluster.processor.speed,
        rusage=cluster.rusage(elapsed),
        message_count=cluster.message_count,
        bytes_sent=cluster.bytes_sent,
        moves=stats.get("moves", 0),
        units_moved=stats.get("moved_units", 0),
        result=result,
        topology=topo_name,
    )
