"""Decentralized work stealing over a coordinator ledger.

Placement decisions are made by the *idle* processors: a worker that
runs out of units asks its peers, in a seeded random order (so runs are
deterministic), for half of their pending units.  The paper's design
inverts this — a central master measures rates and pushes work — so
stealing is the adversarial baseline for workloads where rates are
meaningless: heavy-tailed per-unit cost, abrupt load spikes, anything
where the past does not predict the next unit.

Protocol (see :class:`~repro.strategies.protocol.StealTags`): an idle
worker runs a steal round.  It asks each peer at most once, in a fresh
seeded order, one STEAL at a time, and waits in a timed receive for WORK
(steal-half) or DENY.  A victim silent past ``STEAL_TIMEOUT`` gets ABORT
and is skipped until any message from it arrives: a live victim always
answers the aborted STEAL late (its WORK is still accepted), a dead one
never does.  A worker computes a unit in slices of CPU no longer than
``REPORT_PERIOD`` or ``STEAL_TIMEOUT`` and serves its mailbox between
slices, so a long unit never hides its queue from thieves.

The coordinator never judges a worker.  Reports carry the ids (and,
with numerics, the state) of the units finished since the last report;
its ledger is every unit nobody has reported, with the number of copies
it granted.  A worker whose round found nothing asks it for work, and
it answers like a victim, with copies of the least-copied, oldest
ledger units.  The first result for a unit wins.  Once the ledger is
empty it stops every worker.  As in rDLB (Mohammed et al.), work is
reissued, never given up: a live worker keeps getting copies of what is
unreported, so a unit is lost only if every worker dies, and such a run
ends in ``MapRun``'s drained-queue ``DeadlockError`` naming the
coordinator's wait.

Supports PARALLEL_MAP plans: the bag-of-units custody model has no
meaning for dependence-carrying shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from ..compiler.plan import ExecutionPlan
from ..config import RunConfig
from ..faults import FaultPlan
from ..obs import Recorder
from ..runtime.mapplane import MapResult, MapRun, UnitBag
from ..sim import Compute, LoadGenerator, Poll, Recv, Send
from .protocol import StealTags

# Module-level alias named `Tags` so the protocol lint's AST resolver
# (which pairs `Tags.X` send/receive sites) sees this control plane's
# message sites exactly as it sees the central runtime's.
Tags = StealTags

__all__ = ["StealingResult", "run_stealing"]

#: Worker progress-report cadence in simulated seconds.
REPORT_PERIOD = 0.5
#: Fraction of the victim's pending units a successful steal ships
#: (steal-half); the coordinator grants copies in the same proportion.
STEAL_FRACTION = 0.5
#: How long a thief waits for WORK/DENY before aborting the request and
#: asking the next peer.  A worker serves its mailbox at least every
#: ``min(REPORT_PERIOD, STEAL_TIMEOUT)`` seconds of CPU.
STEAL_TIMEOUT = 0.1


@dataclass(kw_only=True)
class StealingResult(MapResult):
    """Outcome and metrics of one work-stealing run."""

    steals: int
    steal_hits: int
    steal_denies: int
    steal_aborts: int
    units_stolen: int
    completed_units: int
    reissues: int

    def summary(self) -> str:
        return (
            f"{self.name}: P={self.n_slaves} elapsed={self.elapsed:.2f}s "
            f"speedup={self.speedup:.2f} steals={self.steal_hits}/{self.steals} "
            f"({self.units_stolen} units) reissues={self.reissues} "
            f"msgs={self.message_count}"
        )


def _worker_task(
    ctx,
    bag: UnitBag,
    n_workers: int,
    stats: dict,
    seed: int,
):
    obs = ctx.obs
    pid = ctx.pid
    coord = ctx.master_pid
    kernels = bag.plan.kernels
    rng = np.random.default_rng([seed, pid])
    peers = [v for v in range(n_workers) if v != pid]
    pending = bag.pending
    # The longest CPU slice computed without serving the mailbox: a live
    # victim answers a STEAL within about one timeout.
    slice_ops = (
        min(REPORT_PERIOD, STEAL_TIMEOUT) * ctx.cluster.spec.spec_for(pid).speed
    )
    finished: list[int] = []  # units done since the last report
    states: list[Any] = []  # their state, when numerics run
    last_report = 0.0
    req_seq = 0
    outstanding: int | None = None  # the one STEAL awaiting an answer
    # Peers that let a STEAL time out, skipped until they are heard from.
    suspects: set[int] = set()
    # Victim side: requests whose ABORT arrived before their STEAL.
    aborted: set[tuple[int, int]] = set()
    terminated = False

    def _handle(msg):
        """Act on one message: thief, victim and stop arms."""
        nonlocal outstanding, terminated
        suspects.discard(msg.src)
        tag = msg.tag
        if tag == Tags.WORK:
            # Accept units unconditionally — even when the request was
            # aborted (late WORK): the victim has already given them up.
            n_units = bag.accept(msg.payload)
            if msg.src == coord:
                return
            if msg.payload["req"] == outstanding:
                outstanding = None
            stats["units_stolen"] = stats.get("units_stolen", 0) + n_units
            if obs.enabled:
                obs.metrics.counter("steal.hits").inc()
                obs.metrics.counter("steal.units").inc(n_units)
                obs.emit_counter(
                    "steal", "hit", ctx.now, float(n_units),
                    pid=pid, meta={"victim": msg.src},
                )
        elif tag == Tags.DENY:
            if msg.payload["req"] == outstanding:
                outstanding = None
            stats["denies"] = stats.get("denies", 0) + 1
            if obs.enabled:
                obs.metrics.counter("steal.denies").inc()
        elif tag == Tags.STEAL:
            thief = int(msg.payload["thief"])
            req = int(msg.payload["req"])
            k = int(len(pending) * STEAL_FRACTION)
            if (thief, req) in aborted or k < 1:
                aborted.discard((thief, req))
                yield Send(thief, Tags.DENY, {"req": req}, 16)
            else:
                payload, nbytes = bag.give(k)
                payload["req"] = req
                yield Send(thief, Tags.WORK, payload, max(16, nbytes))
                stats["serves"] = stats.get("serves", 0) + 1
        elif tag == Tags.ABORT:
            # Remember the abort in case its STEAL arrives late
            # (reordered); that STEAL is then denied, not served.
            aborted.add((int(msg.payload["thief"]), int(msg.payload["req"])))
        elif tag == Tags.TERM:
            terminated = True

    def _drain():
        while not terminated:
            msg = yield Poll()
            if msg is None:
                return
            yield from _handle(msg)

    def _report(ask: bool):
        nonlocal last_report
        payload: dict[str, Any] = {"units": tuple(finished), "ask": ask}
        nbytes = 32
        if states:
            payload["data"] = tuple(states)
            nbytes = kernels.result_bytes(len(states))
        yield Send(coord, Tags.REPORT, payload, nbytes)
        finished.clear()
        states.clear()
        last_report = ctx.now

    def _steal_round():
        """Ask each peer not under suspicion once, in a fresh seeded
        order, until units arrive or the peers run out."""
        nonlocal outstanding, req_seq
        for victim in rng.permutation(peers).tolist():
            if pending or terminated:
                return
            if victim in suspects:
                continue
            req_seq += 1
            outstanding = req = req_seq
            yield Send(victim, Tags.STEAL, {"thief": pid, "req": req}, 16)
            stats["steals"] = stats.get("steals", 0) + 1
            if obs.enabled:
                obs.metrics.counter("steal.attempts").inc()
            deadline = ctx.now + STEAL_TIMEOUT
            while outstanding == req and not pending and not terminated:
                msg = yield Recv(timeout=max(0.0, deadline - ctx.now))
                if msg is not None:
                    yield from _handle(msg)
                    continue
                yield Send(victim, Tags.ABORT, {"thief": pid, "req": req}, 16)
                suspects.add(victim)
                outstanding = None
                stats["aborts"] = stats.get("aborts", 0) + 1
                if obs.enabled:
                    obs.metrics.counter("steal.aborts").inc()
                    obs.emit_counter(
                        "steal", "abort", ctx.now, 1.0,
                        pid=pid, meta={"victim": victim},
                    )

    while True:
        yield from _drain()
        if terminated:
            return
        if pending:
            unit = pending[0]
            ops, fn = bag.next_unit()
            while ops > slice_ops:
                yield Compute(slice_ops)
                ops -= slice_ops
                yield from _drain()
                if terminated:
                    return
            # The kernel runs with the last slice and its result is read
            # right after, so no WORK for the same unit lands in between.
            yield Compute(ops, fn=fn)
            finished.append(unit)
            if fn is not None:
                states.append(
                    kernels.extract_units(bag.local, np.asarray([unit]), {})
                )
            if not pending or ctx.now - last_report >= REPORT_PERIOD:
                yield from _report(False)
            continue
        yield from _steal_round()
        if pending or terminated:
            continue
        # The round found nothing: ask the coordinator, then wait for
        # units or the stop.
        yield from _report(True)
        while not pending and not terminated:
            msg = yield Recv()
            yield from _handle(msg)


def _coord_task(
    ctx,
    plan: ExecutionPlan,
    exec_num: bool,
    global_state,
    n_workers: int,
    stats: dict,
    sink: dict,
):
    """The ledger: fold first results, grant copies of the least-copied,
    oldest unreported units to askers, stop every worker once no unit is
    left unreported."""
    obs = ctx.obs
    kernels = plan.kernels
    lo, hi = plan.unit_space()
    # Unit -> copies granted, oldest first.
    ledger = dict.fromkeys(range(lo, hi), 0)
    done: list[int] = []
    folded = None
    if exec_num:
        folded = kernels.make_local(global_state, np.empty(0, dtype=np.int64))
    while ledger:
        msg = yield Recv(tag=Tags.REPORT)
        report = msg.payload
        data = report.get("data")
        for i, unit in enumerate(report["units"]):
            if ledger.pop(unit, None) is None:
                continue  # a repeat: the first result won
            done.append(unit)
            if data is not None:
                kernels.unpack_units(folded, np.asarray([unit]), data[i], {})
        if not (report["ask"] and ledger):
            continue
        least = min(ledger.values())
        spare = [unit for unit, copies in ledger.items() if copies == least]
        units = tuple(spare[: max(1, int(len(spare) * STEAL_FRACTION))])
        for unit in units:
            ledger[unit] += 1
        payload: dict[str, Any] = {"units": units}
        if exec_num:
            arr = np.asarray(units)
            payload["data"] = kernels.pack_units(
                kernels.make_local(global_state, arr), arr, {}
            )
        stats["reissues"] = stats.get("reissues", 0) + len(units)
        if obs.enabled:
            obs.metrics.counter("steal.reissues").inc(len(units))
            obs.emit_counter(
                "steal", "reissue", ctx.now, float(len(units)),
                pid=ctx.pid, meta={"to": msg.src},
            )
        yield Send(
            msg.src,
            Tags.WORK,
            payload,
            max(16, len(units) * plan.movement.unit_bytes),
        )

    # Every unit is reported.  Workers still computing a copy stop at
    # their next slice; sends to crashed pids are dropped.
    for pid in range(n_workers):
        yield Send(pid, Tags.TERM, None, 16)
    stats["completed"] = len(done)
    sink["results"] = [
        (done, kernels.local_result(folded) if exec_num else None)
    ]


def run_stealing(
    plan: ExecutionPlan,
    run_cfg: RunConfig | None = None,
    loads: Mapping[int, LoadGenerator] | None = None,
    *,
    seed: int = 0,
    recorder: Recorder | None = None,
    faults: FaultPlan | None = None,
) -> StealingResult:
    """Run ``plan`` under decentralized work stealing.

    ``run_cfg.cluster.n_slaves`` is the worker count; the coordinator
    runs on the master processor.  Worker crashes are survived while one
    worker lives: the coordinator reissues units nobody has reported.
    """
    run_cfg = run_cfg or RunConfig()
    mr = MapRun(
        "work stealing",
        plan,
        run_cfg,
        loads,
        seed=seed,
        recorder=recorder,
        faults=faults,
    )
    n, stats = mr.n, mr.stats
    for pid, bag in enumerate(mr.split()):
        mr.cluster.spawn(pid, _worker_task, bag, n, stats, seed)
    mr.cluster.spawn(
        run_cfg.cluster.master_pid,
        _coord_task,
        plan,
        mr.exec_num,
        mr.global_state,
        n,
        stats,
        mr.sink,
    )
    mr.run()
    return mr.finish(
        StealingResult,
        mr.sink["results"],
        steals=stats.get("steals", 0),
        steal_hits=stats.get("serves", 0),
        steal_denies=stats.get("denies", 0),
        steal_aborts=stats.get("aborts", 0),
        units_stolen=stats.get("units_stolen", 0),
        completed_units=stats.get("completed", 0),
        reissues=stats.get("reissues", 0),
    )
