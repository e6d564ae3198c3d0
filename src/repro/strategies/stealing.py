"""Decentralized work stealing with termination detection.

Placement decisions are made by the *idle* processors: a worker that
runs out of units picks a random victim (seeded per-worker RNG, so runs
are deterministic) and asks for half of its pending units.  The paper's
design inverts this — a central master measures rates and pushes work —
so stealing is the adversarial baseline for workloads where rates are
meaningless: heavy-tailed per-unit cost, abrupt load spikes, anything
where the past does not predict the next unit.

Protocol (see :class:`~repro.strategies.protocol.StealTags`): STEAL is
answered by WORK (steal-half) or DENY; a thief whose victim stays silent
past ``steal_timeout`` sends ABORT and moves on, but still accepts a
late WORK so no units are lost in flight.  A passive coordinator counts
cumulative ``done`` from periodic reports (which double as heartbeats),
declares silent workers dead after ``dead_after``, and terminates when
every unit is accounted for — or, after a death, when all live workers
have been idle for ``stall_grace`` (the dead worker's units are then
reported as lost, never hung).

Supports PARALLEL_MAP plans: the bag-of-units custody model has no
meaning for dependence-carrying shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..compiler.plan import ExecutionPlan
from ..config import RunConfig
from ..errors import ConfigError
from ..faults import FaultPlan
from ..obs import Recorder
from ..runtime.mapplane import MapResult, MapRun, UnitBag
from ..sim import Compute, LoadGenerator, Poll, Send, Sleep
from .protocol import StealTags

# Module-level alias named `Tags` so the protocol lint's AST resolver
# (which pairs `Tags.X` send/receive sites) sees this control plane's
# message sites exactly as it sees the central runtime's.
Tags = StealTags

__all__ = ["StealingConfig", "StealingResult", "run_stealing"]


@dataclass(frozen=True)
class StealingConfig:
    """Control-plane parameters of the work-stealing plane.

    Attributes:
        report_period: worker progress-report cadence (also the
            heartbeat the coordinator's failure detector watches).
        idle_tick: idle worker poll-loop sleep.
        tick: coordinator poll-loop sleep.
        steal_fraction: fraction of the victim's pending units a
            successful steal ships (0.5 = steal-half).
        steal_timeout: how long a thief waits for WORK/DENY before
            aborting the request and trying elsewhere.
        deny_backoff: how long a denied thief avoids the same victim.
        suspect_backoff: how long a timed-out thief avoids the victim
            (it is probably dead; much longer than deny_backoff).
        dead_after: worker silence before the coordinator declares it
            dead (must comfortably exceed report_period).
        stall_grace: after a death, how long the system must be globally
            idle (no progress, all live workers empty) before the dead
            worker's units are declared lost and the run terminated.
        hard_stall: unconditional no-progress bound; termination is
            forced even without a detected death so a run can never
            hang (covers unmodeled unit loss, e.g. dropped messages).
    """

    report_period: float = 0.5
    idle_tick: float = 0.02
    tick: float = 0.02
    steal_fraction: float = 0.5
    steal_timeout: float = 0.5
    deny_backoff: float = 0.2
    suspect_backoff: float = 2.0
    dead_after: float = 4.0
    stall_grace: float = 2.0
    hard_stall: float = 60.0

    def __post_init__(self) -> None:
        if self.report_period <= 0:
            raise ConfigError("report_period must be positive")
        if self.idle_tick <= 0 or self.tick <= 0:
            raise ConfigError("poll ticks must be positive")
        if not 0 < self.steal_fraction <= 0.5:
            raise ConfigError("steal_fraction must be in (0, 0.5]")
        if self.steal_timeout <= 0:
            raise ConfigError("steal_timeout must be positive")
        if self.deny_backoff <= 0 or self.suspect_backoff <= 0:
            raise ConfigError("backoffs must be positive")
        if self.dead_after <= 2 * self.report_period:
            raise ConfigError(
                "dead_after must exceed two report periods, got "
                f"{self.dead_after} vs period {self.report_period}"
            )
        if self.stall_grace <= 0 or self.hard_stall <= self.stall_grace:
            raise ConfigError("need 0 < stall_grace < hard_stall")


@dataclass(kw_only=True)
class StealingResult(MapResult):
    """Outcome and metrics of one work-stealing run."""

    steals: int
    steal_hits: int
    steal_denies: int
    steal_aborts: int
    units_stolen: int
    completed_units: int

    def summary(self) -> str:
        lost = f" lost={self.lost_units}" if self.lost_units else ""
        return (
            f"{self.name}: P={self.n_slaves} elapsed={self.elapsed:.2f}s "
            f"speedup={self.speedup:.2f} steals={self.steal_hits}/{self.steals} "
            f"({self.units_stolen} units) deaths={self.deaths}{lost} "
            f"msgs={self.message_count}"
        )


def _worker_task(
    ctx,
    bag: UnitBag,
    n_workers: int,
    sc: StealingConfig,
    stats: dict,
    seed: int,
):
    obs = ctx.obs
    pid = ctx.pid
    coord = ctx.master_pid
    rng = np.random.default_rng([seed, pid])
    pending = bag.pending
    units_since = 0
    last_report = 0.0
    req_seq = 0
    # One outstanding steal request at a time: (victim, req_id, sent_at).
    outstanding: tuple[int, int, float] | None = None
    # Victim -> time before which we will not ask it again.
    avoid_until: dict[int, float] = {}
    # Requests this *victim* saw an ABORT for before the STEAL arrived.
    aborted_reqs: set[tuple[int, int]] = set()
    terminated = False

    def _intake():
        """Drain the mailbox: thief, victim and termination arms."""
        nonlocal outstanding, terminated
        while True:
            msg = yield Poll()
            if msg is None:
                return
            tag = msg.tag
            if tag == Tags.WORK:
                # Accept stolen units unconditionally — even when the
                # request was aborted (late WORK): dropping it would
                # lose the units the victim already gave up.
                n_units = bag.accept(msg.payload)
                stats["units_stolen"] = stats.get("units_stolen", 0) + n_units
                if obs.enabled:
                    obs.metrics.counter("steal.hits").inc()
                    obs.metrics.counter("steal.units").inc(n_units)
                    obs.emit_counter(
                        "steal", "hit", ctx.now, float(n_units),
                        pid=pid, meta={"victim": msg.src},
                    )
                if outstanding is not None and outstanding[1] == msg.payload["req"]:
                    outstanding = None
            elif tag == Tags.DENY:
                if outstanding is not None and outstanding[1] == msg.payload["req"]:
                    outstanding = None
                    avoid_until[msg.src] = ctx.now + sc.deny_backoff
                stats["denies"] = stats.get("denies", 0) + 1
                if obs.enabled:
                    obs.metrics.counter("steal.denies").inc()
            elif tag == Tags.STEAL:
                thief = int(msg.payload["thief"])
                req = int(msg.payload["req"])
                if (thief, req) in aborted_reqs:
                    aborted_reqs.discard((thief, req))
                    yield Send(thief, Tags.DENY, {"req": req}, 16)
                    continue
                k = int(len(pending) * sc.steal_fraction)
                if k >= 1 and thief != pid:
                    payload, nbytes = bag.give(k)
                    payload["req"] = req
                    yield Send(thief, Tags.WORK, payload, max(16, nbytes))
                    stats["serves"] = stats.get("serves", 0) + 1
                else:
                    yield Send(thief, Tags.DENY, {"req": req}, 16)
            elif tag == Tags.ABORT:
                # Remember the abort in case its STEAL arrives late
                # (reordered); a normally-ordered abort refers to an
                # already-served request and is dropped here.
                aborted_reqs.add((int(msg.payload["thief"]), int(msg.payload["req"])))
            elif tag == Tags.TERM:
                terminated = True
                return

    while not terminated:
        yield from _intake()
        if terminated:
            break
        now = ctx.now
        if pending:
            ops, fn = bag.next_unit()
            yield Compute(ops, fn=fn)
            units_since += 1
        else:
            if outstanding is None and n_workers > 1:
                candidates = [
                    v
                    for v in range(n_workers)
                    if v != pid and avoid_until.get(v, 0.0) <= now
                ]
                if candidates:
                    victim = int(rng.choice(candidates))
                    req_seq += 1
                    yield Send(
                        victim,
                        Tags.STEAL,
                        {"thief": pid, "req": req_seq},
                        16,
                    )
                    outstanding = (victim, req_seq, now)
                    stats["steals"] = stats.get("steals", 0) + 1
                    if obs.enabled:
                        obs.metrics.counter("steal.attempts").inc()
            elif outstanding is not None and now - outstanding[2] > sc.steal_timeout:
                victim, req, _ = outstanding
                yield Send(victim, Tags.ABORT, {"thief": pid, "req": req}, 16)
                avoid_until[victim] = now + sc.suspect_backoff
                outstanding = None
                stats["aborts"] = stats.get("aborts", 0) + 1
                if obs.enabled:
                    obs.metrics.counter("steal.aborts").inc()
                    obs.emit_counter(
                        "steal", "abort", now, 1.0,
                        pid=pid, meta={"victim": victim},
                    )
            yield Sleep(sc.idle_tick)
        now = ctx.now
        if (now - last_report >= sc.report_period) or (units_since and not pending):
            yield Send(
                ctx.master_pid,
                Tags.REPORT,
                {"done": len(bag.done), "remaining": len(pending)},
                32,
            )
            last_report = now
            units_since = 0

    payload, nbytes = bag.result()
    yield Send(coord, Tags.RESULT, payload, nbytes)


def _coord_task(
    ctx,
    n_workers: int,
    total_units: int,
    sc: StealingConfig,
    stats: dict,
    sink: dict,
):
    """Passive coordinator: termination detection + gather only."""
    obs = ctx.obs
    now = ctx.now
    done_of = {pid: 0 for pid in range(n_workers)}
    rem_of = {pid: 0 for pid in range(n_workers)}
    last_heard = {pid: now for pid in range(n_workers)}
    dead: set[int] = set()
    last_progress = now

    def _scan(now: float, spared=()) -> None:
        """Declare workers silent for ``dead_after`` dead (``spared``
        ones excepted)."""
        for pid in range(n_workers):
            if (
                pid not in dead
                and pid not in spared
                and now - last_heard[pid] > sc.dead_after
            ):
                dead.add(pid)
                stats["deaths"] = stats.get("deaths", 0) + 1
                if obs.enabled:
                    obs.metrics.counter("steal.deaths").inc()
                    obs.emit_counter(
                        "steal", "death", now, 1.0, pid=ctx.pid,
                        meta={"dead": pid, "last_remaining": rem_of[pid]},
                    )

    while True:
        progressed = False
        while True:
            msg = yield Poll(tag=Tags.REPORT)
            if msg is None:
                break
            p = msg.payload
            if p["done"] > done_of[msg.src]:
                progressed = True
            done_of[msg.src] = int(p["done"])
            rem_of[msg.src] = int(p["remaining"])
            last_heard[msg.src] = ctx.now
        now = ctx.now
        if progressed:
            last_progress = now
        done_total = sum(done_of.values())
        if done_total >= total_units:
            break
        _scan(now)
        live = [pid for pid in range(n_workers) if pid not in dead]
        if not live:
            break
        if (
            dead
            and now - last_progress > sc.stall_grace
            and all(rem_of[pid] == 0 for pid in live)
        ):
            # Globally idle after a death: the missing units died with
            # the crashed worker(s).  Terminate and report them lost.
            break
        if now - last_progress > sc.hard_stall:
            break  # unconditional: a stealing run must never hang
        yield Sleep(sc.tick)

    done_total = sum(done_of.values())
    lost = max(0, total_units - done_total)
    stats["lost_units"] = lost
    if lost and obs.enabled:
        obs.metrics.counter("steal.lost_units").inc(lost)
    for pid in range(n_workers):
        yield Send(pid, Tags.TERM, None, 16)
    # Gather with the silence detector still running: a worker that
    # crashed shortly before TERM may not have been marked dead yet, and
    # a blocking Recv on its RESULT would hang the coordinator forever.
    results = {}
    gather_start = ctx.now
    while len(results) < n_workers - len(dead):
        msg = yield Poll(tag=Tags.RESULT)
        now = ctx.now
        if msg is not None:
            results[msg.src] = msg.payload
            last_heard[msg.src] = now
            continue
        _scan(now, spared=results)
        if now - gather_start > sc.hard_stall:
            break  # unconditional: a stealing run must never hang
        yield Sleep(sc.tick)
    sink["results"] = results
    sink["lost"] = lost


def run_stealing(
    plan: ExecutionPlan,
    run_cfg: RunConfig | None = None,
    loads: Mapping[int, LoadGenerator] | None = None,
    *,
    stealing: StealingConfig | None = None,
    seed: int = 0,
    recorder: Recorder | None = None,
    faults: FaultPlan | None = None,
) -> StealingResult:
    """Run ``plan`` under decentralized work stealing.

    ``run_cfg.cluster.n_slaves`` is the worker count; the termination
    coordinator runs on the master processor.  Worker crashes are
    tolerated: their units are reported lost (the coordinator never
    hangs), everything computed elsewhere is still gathered.
    """
    run_cfg = run_cfg or RunConfig()
    sc = stealing or StealingConfig()
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
        mr.cluster.spawn(pid, _worker_task, bag, n, sc, stats, seed)
    mr.cluster.spawn(
        run_cfg.cluster.master_pid, _coord_task, n, mr.total_units, sc, stats,
        mr.sink,
    )
    mr.run()
    completed = sum(len(res["units"]) for res in mr.sink["results"].values())
    return mr.finish(
        StealingResult,
        steals=stats.get("steals", 0),
        steal_hits=stats.get("serves", 0),
        steal_denies=stats.get("denies", 0),
        steal_aborts=stats.get("aborts", 0),
        units_stolen=stats.get("units_stolen", 0),
        completed_units=completed,
        # Custody accounting: a unit is lost unless its *result* was
        # gathered — this also covers units a crashed worker computed
        # but never got to hand over (the coordinator's steal.lost_units
        # counter tracks only never-computed units).
        lost_units=mr.total_units - completed,
        deaths=stats.get("deaths", 0),
    )
