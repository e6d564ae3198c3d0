"""Near-neighbour diffusion load balancing (paper Section 6, refs [16][17]).

No central balancer makes *placement* decisions: every ``EXCHANGE_EVERY``
units each busy slave exchanges its remaining-work count with its
topology neighbours and shifts half the difference toward the lighter
side once that half reaches ``THRESHOLD`` units.  A slave that runs out of work
advertises its zero load (and reports its progress) once, then blocks in
``Recv`` until shifted work, a neighbour's load or the stop notice
arrives; it does not poll.  Decisions use only local information, so
load gradients take multiple exchange rounds to propagate across the
network — the latency the paper's global-information design avoids.

By default slaves form a chain (the original baseline); naming a
topology kind makes the exchange graph topology-aware — ring, 2-D mesh,
fat-tree, or WAN-linked two-cluster neighbour sets from
:mod:`repro.sim.network` — and prices every message over the topology's
routed links.

A passive coordinator only *detects termination* (it counts completed
units and broadcasts a stop notice) and gathers results; it takes no
balancing decisions, preserving the decentralised character.

Supports PARALLEL_MAP plans (independent iterations), as the diffusion
literature assumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..compiler.plan import ExecutionPlan
from ..config import RunConfig
from ..runtime.mapplane import MapResult, MapRun, UnitBag
from ..sim import Compute, Fabric, LoadGenerator, Poll, Recv, Send, build_topology

__all__ = ["DiffusionResult", "run_diffusion"]

_LOADINFO = "diff.load"
_WORK = "diff.work"
_PROGRESS = "diff.progress"
_TERM = "diff.term"
_RESULT = "diff.result"

#: A busy slave exchanges loads with its neighbours after every
#: ``EXCHANGE_EVERY`` completed units.
EXCHANGE_EVERY = 2
#: It ships half the load difference to a neighbour once that half is
#: at least this many units.
THRESHOLD = 2


@dataclass(kw_only=True)
class DiffusionResult(MapResult):
    """Outcome and metrics of one diffusion run."""

    moves: int
    units_moved: int
    topology: str = "chain"


def _diff_slave(
    ctx,
    bag: UnitBag,
    neighbors: tuple[int, ...],
    stats: dict,
):
    pid = ctx.pid
    pending = bag.pending
    unreported = 0
    advertised: int | None = None  # the load last sent to the neighbours
    neighbor_load: dict[int, int] = {}
    terminated = False

    def handle(msg) -> None:
        """Take in one message: load info, shifted work or termination."""
        nonlocal terminated
        if msg.tag == _LOADINFO:
            neighbor_load[msg.src] = msg.payload
        elif msg.tag == _WORK:
            stats["received"] = stats.get("received", 0) + bag.accept(msg.payload)
        elif msg.tag == _TERM:
            terminated = True

    def intake():
        """Non-blocking intake of load info, shifted work, termination."""
        for tag in (_LOADINFO, _WORK):
            while True:
                msg = yield Poll(tag=tag)
                if msg is None:
                    break
                handle(msg)
        msg = yield Poll(tag=_TERM)
        if msg is not None:
            handle(msg)

    def exchange():
        """Advertise load, report progress, shift work if imbalanced."""
        nonlocal unreported, advertised
        advertised = len(pending)
        for nb in neighbors:
            yield Send(nb, _LOADINFO, advertised, 16)
        if unreported:
            yield Send(ctx.master_pid, _PROGRESS, unreported, 16)
            unreported = 0
        yield from intake()
        for nb in neighbors:
            their = neighbor_load.get(nb)
            if their is None:
                continue
            excess = (len(pending) - their) // 2
            if excess >= THRESHOLD and excess <= len(pending):
                # Shift contiguous index ranges toward the neighbour:
                # higher-numbered neighbours take the tail, lower ones
                # the head (preserves locality on chains and rings).
                payload, nbytes = bag.give(excess, tail=nb > pid)
                yield Send(nb, _WORK, payload, nbytes)
                moved = len(payload["units"])
                stats["moves"] = stats.get("moves", 0) + 1
                stats["moved_units"] = stats.get("moved_units", 0) + moved
                neighbor_load[nb] = their + moved

    while not terminated:
        yield from intake()
        if terminated:
            break
        if not pending:
            # Idle: advertise the zero load (and report progress) once,
            # then block until work, load news or termination arrives.
            if advertised != 0 or unreported:
                yield from exchange()
            if not pending and not terminated:
                handle((yield Recv()))
            continue
        ops, fn = bag.next_unit()
        yield Compute(ops, fn=fn)
        unreported += 1
        if len(bag.done) % EXCHANGE_EVERY == 0:
            yield from exchange()

    if unreported:
        yield Send(ctx.master_pid, _PROGRESS, unreported, 16)
    payload, nbytes = bag.result()
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
    seed: int = 0,
    topology: str | None = None,
) -> DiffusionResult:
    """Run ``plan`` under near-neighbour diffusion balancing.

    ``topology`` (a :func:`~repro.sim.build_topology` kind) selects the
    exchange graph and prices messages over the topology's links;
    without it, slaves form the legacy chain over a crossbar.
    """
    n = run_cfg.cluster.n_slaves
    fabric = None
    if topology is None:  # legacy chain
        neighbor_map = {
            pid: tuple(nb for nb in (pid - 1, pid + 1) if 0 <= nb < n)
            for pid in range(n)
        }
    else:
        net = run_cfg.cluster.network
        graph = build_topology(topology, n, net)
        neighbor_map = {pid: graph.neighbors(pid) for pid in range(n)}
        fabric = Fabric(graph, net)
    mr = MapRun("diffusion", plan, run_cfg, loads, seed=seed, fabric=fabric)
    for pid, bag in enumerate(mr.split()):
        mr.cluster.spawn(pid, _diff_slave, bag, neighbor_map[pid], mr.stats)
    mr.cluster.spawn(
        run_cfg.cluster.master_pid, _diff_master, n, mr.total_units, mr.sink
    )
    mr.run()
    return mr.finish(
        DiffusionResult,
        moves=mr.stats.get("moves", 0),
        units_moved=mr.stats.get("moved_units", 0),
        topology=topology or "chain",
    )
