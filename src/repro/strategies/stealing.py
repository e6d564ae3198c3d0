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
from typing import Any, Mapping

import numpy as np

from ..compiler.plan import ExecutionPlan, LoopShape
from ..config import RunConfig
from ..errors import ConfigError
from ..faults import FaultInjector, FaultPlan
from ..obs import Recorder
from ..runtime.partition import proportional_counts
from ..sim import Cluster, Compute, LoadGenerator, Poll, Recv, Send, Sleep
from ..sim.rusage import RusageReport
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


@dataclass
class StealingResult:
    """Outcome and metrics of one work-stealing run."""

    name: str
    n_slaves: int
    elapsed: float
    sequential_time: float
    rusage: RusageReport
    message_count: int
    bytes_sent: int
    steals: int
    steal_hits: int
    steal_denies: int
    steal_aborts: int
    units_stolen: int
    completed_units: int
    lost_units: int
    deaths: int
    result: Any = None
    dead_pids: tuple[int, ...] = ()
    recorder: Recorder | None = None

    @property
    def speedup(self) -> float:
        return self.sequential_time / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def efficiency(self) -> float:
        return self.rusage.efficiency(self.sequential_time, list(range(self.n_slaves)))

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
    plan: ExecutionPlan,
    exec_num: bool,
    init_units: tuple[int, ...],
    local,
    n_workers: int,
    sc: StealingConfig,
    stats: dict,
    seed: int,
):
    kernels = plan.kernels
    unit_bytes = plan.movement.unit_bytes
    obs = ctx.obs
    pid = ctx.pid
    coord = ctx.master_pid
    rng = np.random.default_rng([seed, pid])
    pending = list(init_units)
    done_units: list[int] = []
    done = 0
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
                units = list(msg.payload["units"])
                if exec_num and msg.payload.get("data") is not None:
                    kernels.unpack_units(
                        local, np.asarray(units), msg.payload["data"], {}
                    )
                pending.extend(units)
                pending.sort()
                stats["units_stolen"] = stats.get("units_stolen", 0) + len(units)
                if obs.enabled:
                    obs.metrics.counter("steal.hits").inc()
                    obs.metrics.counter("steal.units").inc(len(units))
                    obs.emit_counter(
                        "steal", "hit", ctx.now, float(len(units)),
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
                    give = pending[-k:]
                    del pending[-k:]
                    payload: dict[str, Any] = {"req": req, "units": tuple(give)}
                    if exec_num:
                        payload["data"] = kernels.pack_units(
                            local, np.asarray(give), {}
                        )
                    yield Send(thief, Tags.WORK, payload, max(16, k * unit_bytes))
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
            u = pending.pop(0)
            arr = np.array([u])
            # All reps of one unit run back to back: PARALLEL_MAP units
            # are independent, so per-unit rep collapsing is exact
            # (dynamic-reps plans are rejected at entry).
            ops = sum(plan.unit_cost(rep, u) for rep in range(plan.reps))

            def _do(arr=arr):
                for rep in range(plan.reps):
                    kernels.run_units(local, rep, arr)

            yield Compute(ops, fn=_do if exec_num else None)
            done_units.append(u)
            done += 1
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
                {"done": done, "remaining": len(pending)},
                32,
            )
            last_report = now
            units_since = 0

    payload = {"units": tuple(done_units)}
    if exec_num:
        payload["data"] = kernels.local_result(local)
    nbytes = kernels.result_bytes(len(done_units)) if exec_num else 64
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
        for pid in range(n_workers):
            if pid not in dead and now - last_heard[pid] > sc.dead_after:
                dead.add(pid)
                stats["deaths"] = stats.get("deaths", 0) + 1
                if obs.enabled:
                    obs.metrics.counter("steal.deaths").inc()
                    obs.emit_counter(
                        "steal", "death", now, 1.0, pid=ctx.pid,
                        meta={"dead": pid, "last_remaining": rem_of[pid]},
                    )
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
        for pid in range(n_workers):
            if (
                pid not in dead
                and pid not in results
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
    if plan.shape is not LoopShape.PARALLEL_MAP:
        raise ConfigError(
            "work stealing supports PARALLEL_MAP plans (independent "
            f"iterations) only; plan {plan.name!r} has shape "
            f"{plan.shape.name}. PIPELINE and REDUCTION_FRONT loops need "
            "the central runtime (repro.runtime.run_application)."
        )
    if plan.dynamic_reps:
        raise ConfigError(
            "work stealing cannot run dynamic-reps (WHILE) plans: plan "
            f"{plan.name!r} decides its repetition count from a global "
            "convergence test, which needs the central runtime's sweep "
            "barrier."
        )
    n = run_cfg.cluster.n_slaves
    loads = dict(loads or {})
    for pid in loads:
        if not 0 <= pid < n:
            raise ConfigError(f"competing load assigned to non-worker pid {pid}")
    injector = None
    if faults is not None and not faults.empty:
        faults.validate_for(n)
        injector = FaultInjector(faults, master_pid=run_cfg.cluster.master_pid)
    cluster = Cluster(run_cfg.cluster, loads, recorder, injector)
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
        cluster.spawn(
            pid, _worker_task, plan, exec_num, units, local, n, sc, stats, seed
        )
    cluster.spawn(
        run_cfg.cluster.master_pid, _coord_task, n, hi - lo, sc, stats, sink
    )
    cluster.run(until=run_cfg.max_virtual_time)
    if "results" not in sink:
        from ..errors import SimulationError

        if cluster.engine.pending():
            raise SimulationError(
                f"stealing run exceeded max_virtual_time={run_cfg.max_virtual_time}"
            )
        cluster.run()  # surfaces DeadlockError diagnostics
        raise SimulationError("coordinator never gathered results")

    elapsed = max(
        cluster.task_finish_time(pid)
        for pid in range(run_cfg.cluster.n_processors)
        if pid not in cluster.dead_pids
    )
    completed = sum(len(res["units"]) for res in sink["results"].values())
    result = None
    if exec_num and sink.get("results"):
        merged = {
            pid: (np.asarray(res["units"]), res.get("data"))
            for pid, res in sink["results"].items()
            if res.get("data") is not None and len(res["units"])
        }
        result = plan.kernels.merge_results(global_state, merged)
    return StealingResult(
        name=plan.name,
        n_slaves=n,
        elapsed=elapsed,
        sequential_time=plan.total_ops() / run_cfg.cluster.processor.speed,
        rusage=cluster.rusage(elapsed),
        message_count=cluster.message_count,
        bytes_sent=cluster.bytes_sent,
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
        lost_units=(hi - lo) - completed,
        deaths=stats.get("deaths", 0),
        result=result,
        dead_pids=tuple(sorted(cluster.dead_pids)),
        recorder=recorder,
    )
