"""Central load balancer (master) process.

The master mirrors the slaves' load-balancing phase structure
(Section 4.1): every slave status report gets exactly one instruction
reply, computed from the most recent information (synchronous slaves
block on the reply; pipelined slaves pick it up one hook later,
Section 3.3).  A done report that cannot be answered yet is parked and
answered once something changes for its slave, so every wait on either
side is a receive.  Movement rounds are issued at most one at a time;
the partition bookkeeping advances only when every involved slave has
acknowledged (or cancelled) its side, so master and slaves can never
disagree about ownership.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Iterator, Mapping

import numpy as np

from ..ckpt import (
    CheckpointCoordinator,
    CheckpointEpoch,
    SlaveSnapshot,
    pipeline_repartition,
    reduction_repartition,
)
from ..compiler.plan import ExecutionPlan, LoopShape
from ..config import RunConfig
from ..errors import ProtocolError, SlaveLostError
from ..obs import NULL_RECORDER, Recorder
from ..sim import Recv, Send, TaskContext
from .balancer import BalancerDecision, BalancerState, decide
from .frequency import MIN_PERIOD, QUANTUM_MULTIPLE, hooks_to_skip
from .partition import (
    BlockPartition,
    IndexPartition,
    Transfer,
    cut_units,
    proportional_counts,
)
from .protocol import (
    CTRL_BYTES,
    INSTR_BYTES,
    Ctrl,
    CtrlAck,
    Instructions,
    MoveOrder,
    SlaveReport,
    Tags,
)

__all__ = ["master_task", "MasterLog", "can_recover"]

# Failure-tolerant runtime timings (docs/fault-tolerance.md).

#: Silence before the master *suspects* a slave: it stops directing new
#: work at it but keeps its slices.  SUSPECT_AFTER < DEAD_AFTER.
SUSPECT_AFTER = 2.0
#: Silence before the master declares a slave dead and reassigns its
#: work.  Must comfortably exceed the worst-case transport
#: retransmission span plus one slave ``HEARTBEAT_INTERVAL``.
DEAD_AFTER = 8.0
#: Base timeout before an unacknowledged recovery control (grant /
#: cancel) is retransmitted.
CTRL_RTO = 0.5
#: Exponential backoff factor between control retries.
CTRL_BACKOFF = 2.0
#: Control retries before the target is given up on
#: (:class:`~repro.errors.SlaveLostError` if it is not dead).
CTRL_MAX_RETRIES = 6


def can_recover(plan: ExecutionPlan, run_cfg: RunConfig) -> bool:
    """Can the runtime survive a slave death for this plan and config?

    ``PARALLEL_MAP`` recovers by reassignment alone (iterations are
    independent, so a dead slave's units are simply recomputed);
    dependence-carrying shapes (``PIPELINE``, ``REDUCTION_FRONT``) need
    checkpoint rollback, i.e. ``RunConfig.ckpt`` enabled.
    """
    return plan.shape is LoopShape.PARALLEL_MAP or run_cfg.ckpt.enabled


@dataclass
class _InFlightMove:
    order: MoveOrder
    acked: set[int] = field(default_factory=set)
    canceled: bool = False
    issued_at: float = 0.0

    def involved(self) -> tuple[int, int]:
        return self.order.transfer.src, self.order.transfer.dst

    def complete(self) -> bool:
        return self.acked >= set(self.involved())


class _ScaledCounts(Mapping[int, float]):
    """``counts[p] * num / den`` for each slave ``p``, at least ``floor``."""

    def __init__(self, counts: list[int], num: int, den: int, floor: float):
        self.counts, self.num, self.den, self.floor = counts, num, den, floor

    def __getitem__(self, p: int) -> float:
        return max(self.counts[p] * self.num / self.den, self.floor)

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self.counts)))

    def __len__(self) -> int:
        return len(self.counts)


@dataclass
class _PendingCtrl:
    """A recovery control awaiting its ack (retried with backoff)."""

    ctrl: Ctrl
    dst: int
    sent_at: float
    attempts: int = 1


@dataclass
class MasterLog:
    """Everything the master learned during a run (for experiments)."""

    decision: BalancerDecision | None = None  # the latest one
    moves_issued: int = 0
    moves_applied: int = 0
    moves_canceled: int = 0
    units_moved: int = 0
    units_reassigned: int = 0
    reports_received: int = 0
    final_partition_counts: list[int] = field(default_factory=list)
    result: Any = None
    merged_units: int = 0
    # Checkpoint/rollback accounting (zero unless RunConfig.ckpt enabled).
    rollbacks: int = 0
    units_restored: int = 0
    ckpt_epochs_opened: int = 0
    ckpt_epochs_committed: int = 0
    ckpt_epochs_aborted: int = 0
    ckpt_snapshots: int = 0


class _Master:
    def __init__(
        self,
        ctx: TaskContext,
        plan: ExecutionPlan,
        run_cfg: RunConfig,
        log: MasterLog,
        recorder: Recorder | None,
        global_state: Any,
        partition: BlockPartition | IndexPartition,
        block_size: int | None,
        ft: bool,
    ):
        self.ctx = ctx
        self.plan = plan
        self.cfg = run_cfg
        self.log = log
        self.obs = (
            recorder
            if recorder is not None
            else getattr(ctx, "obs", NULL_RECORDER)
        )
        self.global_state = global_state
        self.partition = partition
        self.block_size = block_size
        self.n = ctx.n_slaves
        self.state = BalancerState(
            n_slaves=self.n,
            config=run_cfg.balancer,
            unit_bytes=plan.movement.unit_bytes,
            network=run_cfg.cluster.network,
            quantum=run_cfg.cluster.processor.quantum,
        )
        self.last_report: dict[int, SlaveReport] = {}
        # PARALLEL_MAP: live per-slave counts of unfinished owned units
        # (see _tail), valid for the partition they were taken on.
        self._remaining: list[int] = []
        self._counted: BlockPartition | IndexPartition | None = None
        self.pending_orders: dict[int, list[MoveOrder]] = {p: [] for p in range(self.n)}
        self.in_flight: dict[int, _InFlightMove] = {}
        self.next_move_id = 0
        self.done_units_accum = 0.0
        self.total_work_units = self._total_work_units()
        self.last_move_issue_time = -1.0e9
        self.released: set[int] = set()
        # Done slaves awaiting an answer (pid -> era of their report),
        # and the slaves to wake with a plain reply at the next pass.
        self.parked: dict[int, int] = {}
        self.woken: set[int] = set()
        self.results: dict[int, Any] = {}
        # Failure tolerance (resolve_run_cfg; all empty in fault-free runs).
        self.ft = ft
        self.exec_num = run_cfg.execute_numerics and global_state is not None
        self.dead: set[int] = set()
        self.suspected: set[int] = set()
        self.last_heard: dict[int, float] = {}
        self.done_units_by_pid: dict[int, float] = {}
        self.ctrl_seq = 0
        self.ctrl_outbox: list[tuple[int, Ctrl]] = []
        self.unacked: dict[int, _PendingCtrl] = {}
        # In-flight moves frozen at a death, awaiting the live side's
        # cancel ack to learn whether its half already executed.
        self.dead_moves: dict[int, _InFlightMove] = {}
        # Moves force-resolved by recovery: late acks for them are fine.
        self.resolved_moves: set[int] = set()
        # Checkpoint/rollback state (RunConfig.ckpt; see docs).
        self.ckpt_cfg = run_cfg.ckpt
        self.era = 0
        self.movement_frozen = False
        self._gen_base = 0
        self._pending_rollback: dict[str, Any] | None = None
        # Residuals keyed rep -> {pid: value} so a rollback can discard
        # pre-rollback contributions and regrant coverage stays exact.
        self.residuals: dict[int, dict[int, float]] = {}
        self.coord: CheckpointCoordinator | None = None
        if self.ckpt_cfg.enabled:
            self.coord = CheckpointCoordinator(self.ckpt_cfg)
            # Epoch 0 is the initial state: every slave snapshots it
            # locally at startup and the master can resynthesize any
            # slave's slice from the global inputs, so a rollback target
            # always exists even before the first commit.
            self.coord.epoch0 = CheckpointEpoch(
                epoch=0,
                barrier=0,
                opened_at=0.0,
                members=tuple(range(self.n)),
                cut={
                    p: tuple(int(u) for u in partition.owned(p))
                    for p in range(self.n)
                },
                boundaries=(
                    tuple(partition.boundaries)
                    if isinstance(partition, BlockPartition)
                    else None
                ),
                next_move_id=0,
                placement=self.ckpt_cfg.placement,
                committed_at=0.0,
            )

    # ------------------------------------------------------------------

    def _total_work_units(self) -> float:
        plan = self.plan
        if plan.shape is LoopShape.REDUCTION_FRONT:
            total = 0.0
            for rep in range(plan.reps):
                lo, hi = plan.domain(rep)
                total += max(0, hi - lo)
            return total
        return float(plan.unit_count * plan.reps)

    def _hook_units(self, counts: list[int]) -> Mapping[int, float]:
        """Units one hook interval covers, per slave (Section 4.3): one
        iteration, a pipeline strip's share of the slave's columns, or
        the units a repetition hook spans.  Read from the ``counts`` the
        decision balances, for the one slave a reply goes to; the view
        holds no reference to the master."""
        if self.plan.shape is LoopShape.PARALLEL_MAP:
            return {}  # one unit per hook: BalancerDecision.skip_hooks' default
        if self.plan.shape is LoopShape.PIPELINE:
            return _ScaledCounts(
                counts, self.block_size or 1, self.plan.strip.total, 1e-9
            )
        # REDUCTION_FRONT: one hook per repetition covering the active set
        # (``c * 1 / 1`` is ``float(c)`` exactly).
        return _ScaledCounts(counts, 1, 1, 1.0)

    def _counts(self) -> list[int]:
        front = self._front()
        return front[0] if front is not None else self.partition.counts()

    def _balanced(
        self,
    ) -> tuple[list[int], Callable[[int], Collection[int]] | None]:
        """The per-slave counts the balancer balances and, unless they
        are ownership, each slave's movable unit ids behind them (read
        only to cut a move that goes ahead)."""
        tail = self._tail()
        if tail is not None:
            return tail, self._unfinished
        return self._front() or (self.partition.counts(), None)

    def note_report(self, report: SlaveReport) -> None:
        """Keep ``report`` as its slave's latest, and refresh that slave's
        live remaining count (the others' counts are unaffected)."""
        self.last_report[report.pid] = report
        if self._counted is self.partition:
            self._remaining[report.pid] = len(self._unfinished(report.pid))

    def _unfinished(self, p: int) -> Collection[int]:
        """Units ``p`` owns, less those its last report called finished."""
        owned = self.partition.units(p)
        rep = self.last_report.get(p)
        if rep is None or rep.remaining_units is None:
            return owned
        return set(rep.remaining_units).intersection(owned)

    def _tail(self) -> list[int] | None:
        """Per-slave counts of unfinished units in a PARALLEL_MAP tail
        phase.

        In steady state the paper's ownership-proportional balancing is
        used (remaining counts snapshotted at different report times
        would inject progress-position noise).  Once some slave runs dry
        while others still hold work, ownership no longer reflects load,
        so the tail balances remaining work, taken from slave reports
        and intersected with current ownership so a stale report cannot
        name a unit that has since moved (:meth:`_unfinished`).

        The counts are live: :meth:`note_report` refreshes the reporter's,
        and all are retaken when movement, a grant or a rollback replaces
        the partition.  So the tail test costs O(P) per report."""
        if self.plan.shape is not LoopShape.PARALLEL_MAP:
            return None
        if self._counted is not self.partition:
            self._counted = self.partition
            self._remaining = [len(self._unfinished(p)) for p in range(self.n)]
        counts = self._remaining
        if min(counts) > 0 or max(counts) == 0:
            return None  # steady state (or fully done): ownership rules
        return list(counts)

    def _front(
        self,
    ) -> tuple[list[int], Callable[[int], Collection[int]]] | None:
        """The units each slave may still give away on a reduction front
        with free movement (Section 4.7), as counts and ids: those past
        the repetition it last reported, plus one repetition of margin
        against report staleness.  An owned list is sorted, so they are
        its suffix past one bisection point."""
        part = self.partition
        if self.plan.shape is not LoopShape.REDUCTION_FRONT or not isinstance(
            part, IndexPartition
        ):
            return None
        cuts = [
            bisect_right(
                part.units(p),
                (self.last_report[p].rep if p in self.last_report else 0) + 1,
            )
            for p in range(self.n)
        ]
        return (
            [len(part.units(p)) - c for p, c in enumerate(cuts)],
            lambda p: part.units(p)[cuts[p] :],
        )

    # ------------------------------------------------------------------
    # Movement round bookkeeping
    # ------------------------------------------------------------------

    def _issue_transfers(self, transfers: list[Transfer], now: float) -> None:
        for t in transfers:
            order = MoveOrder(move_id=self.next_move_id, transfer=t)
            self.next_move_id += 1
            self.in_flight[order.move_id] = _InFlightMove(order, issued_at=now)
            self.pending_orders[t.src].append(order)
            self.pending_orders[t.dst].append(order)
            self.log.moves_issued += 1
            # A slave with pending movement is not done, whatever its
            # last report said; keep the failure-tolerant all-done
            # release barrier honest so grant targets stay alive.
            for p in (t.src, t.dst):
                rep = self.last_report.get(p)
                if rep is not None:
                    rep.done = False
        self.last_move_issue_time = now
        if self.obs.enabled and transfers:
            self.obs.metrics.counter("lb.moves_issued").inc(len(transfers))
            self.obs.emit_counter(
                "lb",
                "redistribute",
                now,
                float(sum(t.count for t in transfers)),
                meta={"transfers": [[t.src, t.dst, t.count] for t in transfers]},
            )

    def _process_acks(self, report: SlaveReport, now: float = 0.0) -> None:
        for mid in report.applied_moves:
            if mid in self.resolved_moves:
                continue  # force-resolved when a peer died
            fl = self.in_flight.get(mid)
            if fl is None:
                raise ProtocolError(f"ack for unknown move {mid}")
            fl.acked.add(report.pid)
        for mid in report.canceled_moves:
            if mid in self.resolved_moves:
                continue  # force-resolved when a peer died
            fl = self.in_flight.get(mid)
            if fl is None:
                raise ProtocolError(f"cancel for unknown move {mid}")
            fl.acked.add(report.pid)
            fl.canceled = True
        # Close out completed moves, applying ownership changes.  Every
        # earlier report popped the moves it completed, so only the moves
        # this one acknowledges can complete; ids follow issue order.
        for mid in sorted({*report.applied_moves, *report.canceled_moves}):
            fl = self.in_flight.get(mid)
            if fl is None or not fl.complete():
                continue
            del self.in_flight[mid]
            if fl.canceled:
                self.log.moves_canceled += 1
            else:
                self.partition = self.partition.apply([fl.order.transfer])
                self.log.moves_applied += 1
                self.log.units_moved += fl.order.transfer.count
            if self.obs.enabled:
                tr = fl.order.transfer
                self.obs.emit_span(
                    "lb",
                    "move",
                    fl.issued_at,
                    now,
                    value=float(tr.count),
                    meta={
                        "move_id": mid,
                        "src": tr.src,
                        "dst": tr.dst,
                        "canceled": fl.canceled,
                    },
                )
                if not fl.canceled:
                    self.obs.metrics.counter("lb.units_migrated").inc(tr.count)
                    self.obs.metrics.histogram("lb.balance_latency_s").observe(
                        now - fl.issued_at
                    )

    def _movement_allowed(self, now: float) -> bool:
        if self.movement_frozen:
            # After a rollback the partition was rebuilt around the
            # survivors; further movement could cross the relinked
            # pipeline ring, so balancing stays frozen for the rest of
            # the run (grants from later deaths still work).
            return False
        if self.coord is not None and (
            self.coord.open is not None or self.coord.due(now)
        ):
            # Movement while an epoch is collecting snapshots would make
            # the cut inconsistent with the deposits; and once an epoch
            # is *due*, new moves are deferred so in-flight ones drain
            # and the epoch can actually open (otherwise continuously
            # rebalancing schedules, LU above all, starve checkpointing).
            return False
        if self.in_flight or now - self.last_move_issue_time < MIN_PERIOD:
            return False
        return not any(self.pending_orders.values())

    # ------------------------------------------------------------------
    # Per-report handling
    # ------------------------------------------------------------------

    def handle_report(self, report: SlaveReport, now: float) -> Instructions:
        self.log.reports_received += 1
        self.note_report(report)
        self.done_units_accum += report.units_done
        self.done_units_by_pid[report.pid] = (
            self.done_units_by_pid.get(report.pid, 0.0) + report.units_done
        )
        raw = report.rate
        self.state.observe(report)
        self._process_acks(report, now)

        if self.obs.enabled:
            self.obs.metrics.counter("lb.reports").inc()
            self.obs.emit_counter(
                "lb",
                "report",
                now,
                float(report.units_done),
                pid=report.pid,
                meta={"done": report.done, "seq": report.seq},
            )
            if raw is not None:
                self.obs.emit_counter("rate", "raw_rate", now, raw, pid=report.pid)
            filt = self.state.filters[report.pid].value
            if filt is not None:
                self.obs.emit_counter(
                    "rate", "adjusted_rate", now, filt, pid=report.pid
                )

        remaining = max(0.0, self.total_work_units - self.done_units_accum)
        allow = (
            self.cfg.dlb_enabled
            and self._movement_allowed(now)
            and remaining > 0
        )
        counts, units_of = self._balanced()
        decision = decide(
            self.state,
            counts,
            self._hook_units(counts),
            remaining_units=remaining,
            allow_movement=allow,
            adjacent=units_of is None and isinstance(self.partition, BlockPartition),
        )
        self.log.decision = decision
        if self.obs.enabled:
            self.obs.metrics.counter("lb.decisions").inc()
            if decision.cancelled is not None:
                self.obs.metrics.counter(
                    f"lb.cancelled.{decision.cancelled}"
                ).inc()
            self.obs.emit_counter(
                "lb",
                "improvement",
                now,
                decision.improvement,
                meta={
                    "cancelled": decision.cancelled,
                    "share_deviation": decision.share_deviation,
                    "period": decision.period,
                },
            )
        if decision.moves:
            if units_of is None:
                transfers = self.partition.cut(decision.moves)
            else:
                transfers = cut_units(units_of, decision.moves)
            # Released slaves no longer read instructions; a transfer
            # touching one could never be delivered and its units would
            # vanish from the gather.
            avoid = self.released | self.dead | self.suspected
            usable = [
                t for t in transfers if t.src not in avoid and t.dst not in avoid
            ]
            if usable:
                self._issue_transfers(usable, now)

        if self.obs.enabled:
            counts = self._counts()
            for p in range(self.n):
                self.obs.emit_counter("lb", "work", now, float(counts[p]), pid=p)

        if report.done:
            return self.answer_done(report.pid, report.era, now)
        return self._orders(report.pid)

    def _orders(self, pid: int) -> Instructions:
        """A reply carrying ``pid``'s queued movement orders (often none)
        and hook frequency, per the latest balancing decision."""
        orders = self.pending_orders[pid]
        self.pending_orders[pid] = []
        decision = self.log.decision
        assert decision is not None  # orders only come from a decision
        return Instructions(
            phase=decision.phase,
            skip_hooks=decision.skip_hooks(pid),
            sends=tuple(o for o in orders if o.transfer.src == pid),
            recvs=tuple(o for o in orders if o.transfer.dst == pid),
            era=self.era,
        )

    def answer_done(
        self, pid: int, era: int, now: float, wake: bool = False
    ) -> Instructions | None:
        """Answer ``pid``'s done report, sent in rollback era ``era``.

        The answer is the slave's movement orders if it has any, else a
        release once it may go.  Until then the slave is *parked*: it
        gets no reply (it blocks until something changes for it), or,
        with ``wake``, a plain reply so it serves the control that woke
        it.  The plain reply carries ``era``, so a slave woken for a
        rollback accepts it and meets the rollback control next.
        """
        self.parked.pop(pid, None)
        if self.pending_orders[pid]:
            return self._orders(pid)
        involved = any(
            pid in fl.involved() and pid not in fl.acked
            for fl in self.in_flight.values()
        )
        if involved or self._release_held(pid):
            if wake:
                return Instructions(phase=self.state.phase, era=era)
            self.parked[pid] = era
            return None
        self.released.add(pid)
        if (
            self.coord is not None
            and self.coord.open is not None
            and pid in self.coord.open.members
        ):
            # A released member will never deposit; the epoch would
            # hang open and block movement forever.
            self._abort_epoch(now)
        return Instructions(
            phase=self.state.phase, release=True, note="release", era=self.era
        )

    def answer_parked(self, now: float):
        """Answer each parked slave once, after every served message and
        recovery deadline: its orders, a release, or a wake if a control
        was just sent to it or it just acked a grant."""
        woken, self.woken = self.woken, set()
        for pid, era in sorted(self.parked.items()):
            instr = self.answer_done(pid, era, now, wake=pid in woken)
            if instr is not None:
                yield Send(pid, Tags.INSTR, instr, INSTR_BYTES)

    # ------------------------------------------------------------------
    # Message plumbing (see _control_loop)
    # ------------------------------------------------------------------

    def receive(self, tag: str | None = None, deadline: float | None = None):
        """The master's next message, as ``(msg, now)``.

        Fault-free this is a blocking ``Recv`` on ``tag``, and ``now`` is
        the arrival time.  With failure tolerance any message is taken,
        so recovery acks reach the master whatever it waits for, and the
        wait also ends at ``deadline``: it then returns ``(None, now)``
        with ``now`` at least ``deadline``, since a timeout means the
        deadline is due, whatever the rounding of ``deadline - now``.
        """
        if not self.ft:
            msg = yield Recv(tag=tag)
            return msg, msg.t_arrived
        timeout = None
        if deadline is not None:
            timeout = max(0.0, deadline - self.ctx.now)
        msg = yield Recv(timeout=timeout)
        now = self.ctx.now
        if msg is None and deadline is not None:
            now = max(now, deadline)
        return msg, now

    def flush_ctrls(self):
        while self.ctrl_outbox:
            dst, ctrl = self.ctrl_outbox.pop(0)
            self.woken.add(dst)
            yield Send(dst, Tags.CTRL, ctrl, CTRL_BYTES)

    def bank_result(self, msg: Any) -> bool:
        """Keep a slave's result unless it comes from a dead slave or an
        older rollback era (a recomputed one is on its way)."""
        if msg.src in self.dead or msg.payload["era"] != self.era:
            return False
        self.results[msg.src] = msg.payload
        return True

    # ------------------------------------------------------------------
    # Failure tolerance (see docs/fault-tolerance.md)
    # ------------------------------------------------------------------

    def _release_held(self, pid: int) -> bool:
        """Release barrier for the failure-tolerant runtime.

        A released slave terminates and can no longer adopt reassigned
        work, so releases are held back while recovery is unsettled
        (suspected slaves, unacknowledged controls, a rollback awaiting
        buddy snapshot pulls) and — as a global barrier — until every
        live slave is done, so a late death always has a live grant
        target.

        Nor is anyone released until every non-dead slave's result is
        banked.  Failure-tolerant slaves return their result as soon as
        they are done (well before the release), so the master only lets
        anyone terminate once it could finish the gather without them.  A
        slave that dies in the silent window between its last report and
        the suspicion threshold then blocks the release of the survivors —
        exactly the ones a rollback needs alive.  A banked result only
        counts while it matches the slave's current ownership (movement
        or a grant after the early return makes it stale).
        """
        if not self.ft:
            return False
        if (
            self.suspected
            or self.unacked
            or self.ctrl_outbox
            or self._pending_rollback is not None
        ):
            return True
        for q in range(self.n):
            if q == pid or q in self.dead or q in self.released:
                continue
            rep = self.last_report.get(q)
            if rep is None or not rep.done:
                return True
        for q in range(self.n):
            if q in self.dead:
                continue
            res = self.results.get(q)
            if res is None:
                return True
            if q in self.released:
                continue  # verified against ownership at its release
            owned = {int(u) for u in self.partition.owned(q)}
            if {int(u) for u in res["units"]} != owned:
                return True
        return False

    def note_heard(self, pid: int, now: float) -> None:
        if pid in self.dead:
            return
        self.last_heard[pid] = now
        if pid in self.suspected:
            self.suspected.discard(pid)
            if self.obs.enabled:
                self.obs.metrics.counter("ft.recovered").inc()
                self.obs.emit_counter("slave", "recovered", now, 1.0, pid=pid)

    def _retry_at(self, pc: _PendingCtrl) -> float:
        return pc.sent_at + CTRL_RTO * CTRL_BACKOFF ** (pc.attempts - 1)

    def next_deadline(self, now: float) -> float | None:
        """When recovery work next falls due (failure tolerance only): the
        earliest control retry, silent slave's suspicion or death, or the
        next checkpoint epoch when that lies ahead.  An epoch that is due
        but blocked by movement is re-checked on the next message.

        Every check in :meth:`ft_tick` compares in the form its deadline
        is computed here, so a wait that times out at a deadline always
        finds it due (a rounding miss would re-arm a zero timeout at the
        same instant forever)."""
        if not self.ft:
            return None
        times = [
            self._retry_at(pc)
            for pc in self.unacked.values()
            if pc.dst not in self.dead
        ]
        for pid in range(self.n):
            if pid in self.dead or pid in self.released:
                continue
            limit = DEAD_AFTER if pid in self.suspected else SUSPECT_AFTER
            times.append(self.last_heard.get(pid, now) + limit)
        if self.coord is not None:
            due = self.coord.due_at()
            if due is not None and due > now:
                times.append(due)
        return min(times, default=None)

    def ft_tick(self, now: float) -> None:
        """Recovery work that has fallen due: control retries, the silence
        scan and checkpoint epochs (failure tolerance only)."""
        if not self.ft:
            return
        for seq, pc in sorted(self.unacked.items()):
            if pc.dst in self.dead:
                continue  # cleaned up by declare_dead
            if now < self._retry_at(pc):
                continue
            if pc.attempts > CTRL_MAX_RETRIES:
                raise SlaveLostError(
                    f"control {pc.ctrl.kind!r} (seq {seq}) to slave "
                    f"{pc.dst} unacknowledged after {pc.attempts} attempts"
                )
            pc.attempts += 1
            pc.sent_at = now
            self.ctrl_outbox.append((pc.dst, pc.ctrl))
            if self.obs.enabled:
                self.obs.metrics.counter("ft.ctrl_retransmits").inc()
                self.obs.emit_counter(
                    "ctrl",
                    "retransmit",
                    now,
                    1.0,
                    pid=pc.dst,
                    meta={
                        "seq": seq,
                        "kind": pc.ctrl.kind,
                        "attempt": pc.attempts,
                    },
                )
        for pid in range(self.n):
            if pid in self.dead or pid in self.released:
                continue
            heard = self.last_heard.get(pid, now)
            if now >= heard + DEAD_AFTER:
                self.declare_dead(pid, now)
            elif (
                now >= heard + SUSPECT_AFTER
                and pid not in self.suspected
            ):
                self.suspected.add(pid)
                if self.obs.enabled:
                    self.obs.metrics.counter("ft.suspected").inc()
                    self.obs.emit_counter(
                        "slave",
                        "suspected",
                        now,
                        1.0,
                        pid=pid,
                        meta={"silent_for": now - heard},
                    )
        if self.coord is not None:
            self._ckpt_tick(now)

    def _send_ctrl(
        self,
        dst: int,
        kind: str,
        now: float,
        move_id: int | None = None,
        units: tuple[int, ...] = (),
        data: Any = None,
        meta: dict[str, Any] | None = None,
    ) -> Ctrl:
        ctrl = Ctrl(
            seq=self.ctrl_seq,
            kind=kind,
            move_id=move_id,
            units=tuple(int(u) for u in units),
            data=data,
            meta=meta or {},
        )
        self.ctrl_seq += 1
        self.ctrl_outbox.append((dst, ctrl))
        self.unacked[ctrl.seq] = _PendingCtrl(ctrl=ctrl, dst=dst, sent_at=now)
        return ctrl

    def handle_ctrl_ack(self, ack: CtrlAck, now: float) -> None:
        pc = self.unacked.pop(ack.seq, None)
        if pc is None:
            return  # duplicate ack for an already-settled control
        ctrl = pc.ctrl
        if ctrl.kind == "ckpt":
            if ack.status == "miss" and (
                self.coord is not None
                and self.coord.open is not None
                and self.coord.open.epoch == int(ctrl.meta["epoch"])
            ):
                # The slave already ran past the barrier: abort; the
                # next epoch opens with a wider barrier margin.
                self._abort_epoch(now, missed=True)
            return
        if ctrl.kind == "ckpt_pull":
            if ack.status == "miss":
                self._pull_failed(int(ctrl.meta["pid"]), now)
            return
        if ctrl.kind == "grant":
            # A parked grantee served the grant on its own (it reported
            # done before the grant arrived): wake it to do the work.
            self.woken.add(pc.dst)
            return
        if ctrl.kind not in ("cancel_send", "cancel_recv"):
            return  # rollbacks need nothing further
        mid = ctrl.move_id
        assert mid is not None
        fl = self.dead_moves.pop(mid, None)
        if fl is None:
            return
        tr = fl.order.transfer
        if ack.status == "applied":
            # The live side had already executed its half, so the
            # transfer happened (toward a dead receiver the data is
            # lost, but ownership still moved — regrant from there).
            self.partition = self.partition.apply([tr])
            self.log.moves_applied += 1
            self.log.units_moved += tr.count
            if tr.dst in self.dead:
                self._grant_units(tr.units, tr.dst, now)
        else:  # "canceled": the transfer never happened
            self.log.moves_canceled += 1
            if tr.src in self.dead:
                self._grant_units(tr.units, tr.src, now)

    def can_recover(self) -> bool:
        return can_recover(self.plan, self.cfg)

    def _result_usable(self, pid: int) -> bool:
        """Does ``pid``'s banked result cover exactly what it owns?

        Failure-tolerant slaves return results at done-time, so a dead
        slave may have nothing left to recover.  A result that no longer
        matches the ledger (movement or a grant came after it) is stale:
        it is dropped, and recovery re-covers those units.
        """
        res = self.results.get(pid)
        if res is None:
            return False
        owned = {int(u) for u in self.partition.owned(pid)}
        if {int(u) for u in res["units"]} != owned:
            del self.results[pid]
            return False
        return True

    def declare_dead(self, pid: int, now: float) -> None:
        """Declare ``pid`` dead and recover its work.

        ``PARALLEL_MAP`` reassigns the dead slave's units directly (unit
        results depend only on inputs); dependence-carrying shapes roll
        every survivor back to the last committed checkpoint epoch and
        repartition the dead slave's slice from the checkpointed state.
        """
        if pid in self.dead:
            return
        if not self.can_recover():
            raise SlaveLostError(
                f"slave {pid} lost (silent for {DEAD_AFTER}s); "
                f"{self.plan.shape.name} schedules need checkpointing "
                "(RunConfig.ckpt) to recover, and it is disabled"
            )
        self.dead.add(pid)
        self.suspected.discard(pid)
        self.parked.pop(pid, None)
        self.state.exclude(pid)
        lost_progress = self.done_units_by_pid.get(pid, 0.0)
        self.done_units_accum = max(0.0, self.done_units_accum - lost_progress)
        self.done_units_by_pid[pid] = 0.0
        self.pending_orders[pid] = []
        if self.obs.enabled:
            self.obs.metrics.counter("ft.deaths").inc()
            self.obs.emit_counter(
                "slave",
                "declared_dead",
                now,
                1.0,
                pid=pid,
                meta={"lost_progress_units": lost_progress},
            )
        if (
            self.coord is not None
            and self.coord.open is not None
            and pid in self.coord.open.members
        ):
            self._abort_epoch(now)
        if self.plan.shape is not LoopShape.PARALLEL_MAP:
            # Coordinated rollback: drop controls addressed to the dead
            # slave, then roll the survivors back to the last committed
            # epoch (movement settling is subsumed — every move issued
            # after the epoch cut is voided wholesale).
            for seq in [
                s for s, pc in self.unacked.items() if pc.dst == pid
            ]:
                del self.unacked[seq]
            self.ctrl_outbox = [
                (d, c) for (d, c) in self.ctrl_outbox if d != pid
            ]
            if self._result_usable(pid):
                return  # its result already arrived; nothing to recompute
            self._begin_rollback(pid, now)
            return
        # Cancel controls parked on an earlier death whose live target is
        # this slave; whoever the unapplied transfer leaves the units with
        # is dead, so they go straight back to the grant pool.
        regrants: list[tuple[int, tuple[int, ...]]] = []
        for mid, fl in list(self.dead_moves.items()):
            src, dst = fl.involved()
            if pid not in (src, dst):
                continue
            del self.dead_moves[mid]
            self.log.moves_canceled += 1
            tr = fl.order.transfer
            if tr.src != pid and tr.src in self.dead:
                # Excluded from the earlier sweep as contested; free now.
                regrants.append((tr.src, tr.units))
        # Resolve in-flight movements that involve the dead slave.
        for mid, fl in list(self.in_flight.items()):
            src, dst = fl.involved()
            if pid not in (src, dst):
                continue
            other = dst if src == pid else src
            del self.in_flight[mid]
            self.resolved_moves.add(mid)
            queued = any(
                o.move_id == mid for o in self.pending_orders[other]
            )
            if queued:
                self.pending_orders[other] = [
                    o for o in self.pending_orders[other] if o.move_id != mid
                ]
            if other in self.dead:
                self.log.moves_canceled += 1
            elif other in fl.acked:
                if fl.canceled:
                    self.log.moves_canceled += 1
                else:
                    self.partition = self.partition.apply([fl.order.transfer])
                    self.log.moves_applied += 1
                    self.log.units_moved += fl.order.transfer.count
            elif queued:
                # The live side never saw the order; nothing to cancel.
                self.log.moves_canceled += 1
            else:
                # The live side may or may not have executed its half:
                # ask it to cancel and settle ownership on the ack.
                kind = "cancel_recv" if src == pid else "cancel_send"
                self._send_ctrl(other, kind, now, move_id=mid)
                self.dead_moves[mid] = fl
        # Drop pending controls addressed to the dead slave.  Granted
        # units (ownership already moved to it) fall into its sweep.
        for seq in [s for s, pc in self.unacked.items() if pc.dst == pid]:
            del self.unacked[seq]
        self.ctrl_outbox = [
            (d, c) for (d, c) in self.ctrl_outbox if d != pid
        ]
        # Checked only now: settling an acked move into the dead slave
        # above changes what it owns.
        if self._result_usable(pid):
            return  # its result already arrived; nothing to recompute
        # Sweep: everything the ledger says the dead slave owns, minus
        # units whose ownership hangs on an outstanding cancel ack.
        contested: set[int] = set()
        for fl in self.dead_moves.values():
            if fl.order.transfer.src == pid:
                contested.update(int(u) for u in fl.order.transfer.units)
        pool = tuple(
            sorted(
                set(int(u) for u in self.partition.owned(pid)) - contested
            )
        )
        regrants.append((pid, pool))
        for owner, units in regrants:
            self._grant_units(units, owner, now)

    def _grant_units(
        self, units: tuple[int, ...], from_pid: int, now: float
    ) -> None:
        """Reassign a dead slave's units to the surviving slaves,
        proportionally to their filtered rates."""
        units = tuple(sorted(int(u) for u in units))
        if not units:
            return
        candidates = [
            q
            for q in range(self.n)
            if q not in self.dead
            and q not in self.released
            and q not in self.suspected
        ]
        if not candidates:
            candidates = [
                q
                for q in range(self.n)
                if q not in self.dead and q not in self.released
            ]
        if not candidates:
            raise SlaveLostError(
                f"no surviving slave can adopt the work of dead slave "
                f"{from_pid} ({len(units)} units)"
            )
        rates = self.state.filtered_rates()
        shares = proportional_counts(
            len(units), [rates[q] for q in candidates]
        )
        idx = 0
        for q, share in zip(candidates, shares):
            if share == 0:
                continue
            chunk = units[idx : idx + share]
            idx += share
            self.partition = self.partition.apply(
                [Transfer(src=from_pid, dst=q, units=chunk)]
            )
            self._send_ctrl(
                q,
                "grant",
                now,
                units=chunk,
                data=self._grant_payload(chunk),
                meta={"completed": {u: 0 for u in chunk}, "from": from_pid},
            )
            rep = self.last_report.get(q)
            if rep is not None:
                rep.done = False  # it has work again; hold its release
            self.log.units_reassigned += len(chunk)
            if self.obs.enabled:
                self.obs.metrics.counter("ft.units_reassigned").inc(len(chunk))
                self.obs.emit_counter(
                    "work",
                    "reassigned",
                    now,
                    float(len(chunk)),
                    pid=q,
                    meta={
                        "from": from_pid,
                        "to": q,
                        "units": [int(u) for u in chunk],
                    },
                )

    def _grant_payload(self, units: tuple[int, ...]) -> Any:
        """Rebuild unit state for a grant from the initial global state
        (valid for PARALLEL_MAP: unit results depend only on inputs)."""
        if not self.exec_num:
            return None
        k = self.plan.kernels
        arr = np.asarray(units)
        local = k.make_local(self.global_state, arr)
        return k.pack_units(local, arr, {"shape": "parallel_map"})

    # ------------------------------------------------------------------
    # Checkpointing (RunConfig.ckpt; see repro.ckpt and docs)
    # ------------------------------------------------------------------

    def _abort_epoch(self, now: float, missed: bool = False) -> None:
        if self.coord is None or self.coord.open is None:
            return
        self.coord.abort(now, missed=missed)
        self.log.ckpt_epochs_aborted += 1
        if self.obs.enabled:
            self.obs.metrics.counter("ckpt.epochs_aborted").inc()
            if missed:
                self.obs.metrics.counter("ckpt.barrier_misses").inc()

    def _ckpt_tick(self, now: float) -> None:
        """Open a new checkpoint epoch when one is due and safe."""
        assert self.coord is not None
        if self._pending_rollback is not None or not self.coord.due(now):
            return
        if self.in_flight or any(
            self.pending_orders[p] for p in range(self.n)
        ):
            return  # movement in progress: the cut would be ambiguous
        members = tuple(
            p
            for p in range(self.n)
            if p not in self.dead and p not in self.released
        )
        if not members:
            return
        if self.plan.shape is LoopShape.PARALLEL_MAP:
            barrier = 0  # any hook is a dependence-safe cut for a map
        else:
            barrier = (
                max(
                    (
                        self.last_report[p].rep
                        for p in members
                        if p in self.last_report
                    ),
                    default=0,
                )
                + self.coord.margin
            )
            if barrier >= self.plan.reps:
                return  # too near the end for a checkpoint to pay off
        cut = {
            p: tuple(int(u) for u in self.partition.owned(p))
            for p in members
        }
        boundaries = (
            tuple(self.partition.boundaries)
            if isinstance(self.partition, BlockPartition)
            else None
        )
        buddies: dict[int, int] = {}
        if self.ckpt_cfg.placement == "buddy" and len(members) > 1:
            for i, p in enumerate(members):
                buddies[p] = members[(i + 1) % len(members)]
        epoch = self.coord.open_epoch(
            now,
            barrier=barrier,
            members=members,
            cut=cut,
            boundaries=boundaries,
            next_move_id=self.next_move_id,
            buddies=buddies or None,
        )
        committed = (
            self.coord.committed.epoch if self.coord.committed else 0
        )
        for p in members:
            meta: dict[str, Any] = {
                "epoch": epoch.epoch,
                "barrier": barrier,
                "committed": committed,
            }
            if p in buddies:
                meta["buddy"] = buddies[p]
            self._send_ctrl(p, "ckpt", now, meta=meta)
        self.log.ckpt_epochs_opened += 1
        if self.obs.enabled:
            self.obs.metrics.counter("ckpt.epochs_opened").inc()
            self.obs.emit_counter(
                "ckpt",
                "epoch_open",
                now,
                float(epoch.epoch),
                meta={"barrier": barrier, "members": list(members)},
            )

    def handle_ckpt_message(self, msg: Any, now: float) -> None:
        """A ``Tags.CKPT`` message: a snapshot deposit, a buddy-placement
        manifest, or a pulled snapshot for a pending rollback."""
        if self.coord is None:
            return
        payload = msg.payload
        kind = payload.get("kind")
        if kind == "pull":
            self._pull_arrived(payload["snap"], now)
            return
        if kind not in ("deposit", "manifest"):
            raise ProtocolError(
                f"master received unknown ckpt message {kind!r}"
            )
        pid = int(payload["pid"])
        epoch_num = int(payload["epoch"])
        snap: SlaveSnapshot
        if kind == "deposit":
            snap = payload["snap"]
        else:
            snap = SlaveSnapshot(
                pid=pid,
                epoch=epoch_num,
                rep=int(payload["rep"]),
                units=tuple(int(u) for u in payload["units"]),
                local=None,
            )
        self.log.ckpt_snapshots += 1
        open_epoch = self.coord.open
        if self.coord.deposit(pid, snap, now):
            self.log.ckpt_epochs_committed += 1
            if self.obs.enabled:
                assert open_epoch is not None
                self.obs.metrics.counter("ckpt.epochs_committed").inc()
                self.obs.emit_span(
                    "ckpt",
                    "epoch",
                    open_epoch.opened_at,
                    now,
                    value=float(len(open_epoch.members)),
                    meta={
                        "epoch": epoch_num,
                        "barrier": open_epoch.barrier,
                    },
                )

    # ------------------------------------------------------------------
    # Coordinated rollback (non-PARALLEL_MAP death recovery)
    # ------------------------------------------------------------------

    def _begin_rollback(self, dead_pid: int, now: float) -> None:
        assert self.coord is not None
        self._abort_epoch(now)
        self._pending_rollback = None
        target = self.coord.rollback_target()
        if target.epoch > 0 and self.exec_num:
            # Under buddy placement the master holds only manifests for
            # the committed epoch; dead members' full snapshots must be
            # pulled from their buddies before regranting.  A broken
            # buddy chain (buddy also dead) falls back to epoch 0.
            pulls: dict[int, int] = {}
            chain_ok = True
            for d in sorted(self.dead):
                if d not in target.members:
                    continue
                snap = target.snapshots.get(d)
                if snap is not None and snap.local is not None:
                    continue
                buddy = target.buddies.get(d)
                if buddy is None or buddy in self.dead:
                    chain_ok = False
                    break
                pulls[d] = buddy
            if not chain_ok:
                assert self.coord.epoch0 is not None
                target = self.coord.epoch0
            elif pulls:
                for d, buddy in pulls.items():
                    self._send_ctrl(
                        buddy,
                        "ckpt_pull",
                        now,
                        meta={"epoch": target.epoch, "pid": d},
                    )
                self._pending_rollback = {
                    "target": target,
                    "awaiting": set(pulls),
                }
                return
        self._finish_rollback(target, now)

    def _pull_arrived(self, snap: SlaveSnapshot, now: float) -> None:
        pr = self._pending_rollback
        if pr is None:
            return
        target: CheckpointEpoch = pr["target"]
        if snap.epoch != target.epoch or snap.pid not in pr["awaiting"]:
            return  # late reply for a superseded rollback attempt
        target.snapshots[snap.pid] = snap
        pr["awaiting"].discard(snap.pid)
        if not pr["awaiting"]:
            self._pending_rollback = None
            self._finish_rollback(target, now)

    def _pull_failed(self, pid: int, now: float) -> None:
        if self._pending_rollback is None:
            return
        # The buddy no longer holds the deposit: fall back to epoch 0,
        # which every survivor can restore from its local snapshot.
        assert self.coord is not None and self.coord.epoch0 is not None
        self._pending_rollback = None
        self._finish_rollback(self.coord.epoch0, now)

    def _finish_rollback(self, target: CheckpointEpoch, now: float) -> None:
        """Roll the survivors back to ``target`` and repartition every
        dead slave's checkpointed slice among them."""
        assert self.coord is not None
        survivors = [p for p in target.members if p not in self.dead]
        if not survivors:
            raise SlaveLostError(
                f"no surviving slave left to roll back to epoch "
                f"{target.epoch}"
            )
        gone = [p for p in survivors if p in self.released]
        if gone:  # pragma: no cover - releases require a complete gather
            raise SlaveLostError(
                f"epoch {target.epoch} members {gone} already released; "
                "cannot roll them back"
            )
        self.era += 1
        # Survivors recompute from the epoch cut; anything they returned
        # before the rollback is stale (they resend at the new era).
        for p in survivors:
            self.results.pop(p, None)
        self.movement_frozen = True
        # Every move issued after the epoch cut is void; the survivors
        # void the same id range locally, so late acks resolve silently.
        self.resolved_moves.update(
            range(target.next_move_id, self.next_move_id)
        )
        self.in_flight.clear()
        self.dead_moves.clear()
        for p in range(self.n):
            self.pending_orders[p] = []
        self.unacked.clear()
        self.ctrl_outbox.clear()
        dead_sorted = sorted(self.dead)
        grants_by_rcv: dict[int, list[tuple[int, list[int]]]]
        ring: dict[int, tuple[int | None, int | None]] = {}
        if self.plan.shape is LoopShape.PIPELINE:
            assert target.boundaries is not None
            new_boundaries, grants_by_rcv = pipeline_repartition(
                list(target.boundaries), dead_sorted
            )
            self.partition = BlockPartition(new_boundaries)
            for i, p in enumerate(survivors):
                ring[p] = (
                    survivors[i - 1] if i > 0 else None,
                    survivors[i + 1] if i + 1 < len(survivors) else None,
                )
        else:  # REDUCTION_FRONT
            new_owned, grants_by_rcv = reduction_repartition(
                target.cut,
                survivors,
                dead_sorted,
                self.state.filtered_rates(),
            )
            self.partition = IndexPartition(
                [list(new_owned.get(p, [])) for p in range(self.n)]
            )
        # Fresh boundary-exchange generation numbers strictly above any
        # pre-rollback gen (gens only grow by move executions, bounded
        # by the number of moves ever issued).
        self._gen_base += self.next_move_id + 1
        # Progress accounting restarts from the cut.
        self.done_units_accum = 0.0
        self.done_units_by_pid = {}
        for p in survivors:
            rep = self.last_report.get(p)
            if rep is not None:
                rep.done = False
        self.residuals.clear()
        units_restored = 0
        for p in survivors:
            grants = [
                self._rollback_grant(target, d, units)
                for d, units in grants_by_rcv.get(p, [])
            ]
            units_restored += sum(len(g["units"]) for g in grants)
            meta: dict[str, Any] = {
                "epoch": target.epoch,
                "barrier": target.barrier,
                "era": self.era,
                "void_from": target.next_move_id,
                "void_to": self.next_move_id,
                "grants": grants,
            }
            if self.plan.shape is LoopShape.PIPELINE:
                left, right = ring[p]
                meta["gen"] = self._gen_base
                meta["left"] = left
                meta["right"] = right
            else:
                meta["peers"] = list(survivors)
            self._send_ctrl(p, "rollback", now, meta=meta)
        self.log.rollbacks += 1
        self.log.units_restored += units_restored
        if self.obs.enabled:
            self.obs.metrics.counter("ckpt.rollbacks").inc()
            self.obs.metrics.counter("ckpt.units_restored").inc(
                units_restored
            )
            self.obs.emit_counter(
                "ckpt",
                "rollback",
                now,
                float(units_restored),
                meta={
                    "epoch": target.epoch,
                    "dead": dead_sorted,
                    "survivors": list(survivors),
                },
            )

    def _rollback_grant(
        self, target: CheckpointEpoch, dead_pid: int, units: list[int]
    ) -> dict[str, Any]:
        """One grant record: a dead slave's units as of the epoch cut,
        with their data extracted from its checkpointed state (or
        resynthesized from the global inputs for epoch 0)."""
        arr = np.asarray(sorted(int(u) for u in units))
        snap = target.snapshots.get(dead_pid)
        grant: dict[str, Any] = {
            "from": dead_pid,
            "units": [int(u) for u in arr],
        }
        if self.plan.shape is LoopShape.REDUCTION_FRONT:
            if snap is not None:
                grant["completed"] = {
                    int(u): int(snap.completed.get(int(u), 0)) for u in arr
                }
                grant["front_sent"] = {
                    int(u): bool(snap.front_sent.get(int(u), False))
                    for u in arr
                }
            else:
                grant["completed"] = {int(u): 0 for u in arr}
                grant["front_sent"] = {int(u): False for u in arr}
        if not self.exec_num:
            grant["data"] = None
            return grant
        k = self.plan.kernels
        ctx = {
            "shape": (
                "pipeline"
                if self.plan.shape is LoopShape.PIPELINE
                else "reduction_front"
            )
        }
        if snap is not None and snap.local is not None:
            grant["data"] = k.extract_units(snap.local, arr, ctx)
        else:
            cut_units = np.asarray(
                [int(u) for u in target.cut.get(dead_pid, ())]
            )
            local = k.make_local(self.global_state, cut_units)
            grant["data"] = k.extract_units(local, arr, ctx)
        return grant


def _serve(m: _Master, msg: Any, now: float):
    """Handle one message of the control loop."""
    tag = msg.tag
    if tag == Tags.STATUS:
        report: SlaveReport = msg.payload
        # A pre-rollback report gets no reply: the restored slave has
        # already reset its outstanding-reply accounting.
        if report.era == m.era:
            instr = m.handle_report(report, msg.t_arrived)
            if instr is not None:  # None: a done slave was parked
                yield Send(report.pid, Tags.INSTR, instr, INSTR_BYTES)
    elif tag == Tags.HB:
        pass  # silence probe: being heard is the whole point
    elif tag == Tags.CTRL_ACK:
        m.handle_ctrl_ack(msg.payload, now)
    elif tag == Tags.CKPT:
        m.handle_ckpt_message(msg, now)
    elif tag.startswith("conv.res."):
        # The master mirrors the slaves' WHILE loop: it reduces the
        # residuals of repetition ``rep`` and broadcasts the loop
        # condition's verdict before anyone starts ``rep+1``.
        rep = int(tag.rsplit(".", 1)[1])
        raw = msg.payload
        if isinstance(raw, dict):
            if int(raw.get("era", 0)) != m.era:
                return  # pre-rollback residual
            val = float(raw["res"])
        else:
            val = float(raw)
        bucket = m.residuals.setdefault(rep, {})
        bucket[msg.src] = val
        live = {
            p for p in range(m.n) if p not in m.dead and p not in m.released
        }
        if live and live <= set(bucket):
            global_residual = max(bucket.values())
            del m.residuals[rep]
            plan = m.plan
            go = rep + 1 < plan.reps and (
                plan.convergence_tol is None
                or global_residual > plan.convergence_tol
            )
            for pid in sorted(live):
                yield Send(pid, Tags.cont(rep + 1), bool(go), 16)
    elif tag == Tags.RESULT:
        m.bank_result(msg)
    else:  # pragma: no cover - no other tags target the master
        raise ProtocolError(f"master received unexpected message {tag}")


def _control_loop(m: _Master):
    """Serve reports, residuals and results until every slave is released
    (or dead), then gather the results still missing.

    Every wait is one receive (:meth:`_Master.receive`).  With failure
    tolerance it also ends at the earliest recovery deadline
    (:meth:`_Master.next_deadline`), and recovery runs after every
    message and every deadline (:meth:`_Master.ft_tick`).  Queued
    controls go out before the parked slaves are answered, so a wake
    follows its control on the link.
    """
    for pid in range(m.n):
        m.last_heard[pid] = m.ctx.now
    all_pids = set(range(m.n))
    while not (m.released | m.dead) >= all_pids:
        msg, now = yield from m.receive(
            deadline=m.next_deadline(m.ctx.now)
        )
        # msg is None at a deadline; traffic from the dead is dropped.
        if msg is not None and msg.src not in m.dead:
            m.note_heard(msg.src, now)
            yield from _serve(m, msg, now)
        m.ft_tick(now)
        yield from m.flush_ctrls()
        yield from m.answer_parked(now)
    # Gather: released slaves no longer heartbeat, so a failure-tolerant
    # wait here is bounded by an overall progress timeout instead of the
    # silence scan.
    last_progress = m.ctx.now
    while True:
        missing = [
            p for p in range(m.n) if p not in m.results and p not in m.dead
        ]
        if not missing:
            break
        msg, now = yield from m.receive(
            Tags.RESULT, deadline=last_progress + DEAD_AFTER
        )
        if msg is None:
            raise SlaveLostError(
                f"released slaves {missing} never returned results"
            )
        if msg.tag == Tags.RESULT:
            if m.bank_result(msg):
                last_progress = now
        elif msg.tag == Tags.CTRL_ACK:
            m.handle_ctrl_ack(msg.payload, now)
        # anything else (late heartbeats, zombie traffic) is ignored


def master_task(
    ctx: TaskContext,
    plan: ExecutionPlan,
    run_cfg: RunConfig,
    log: MasterLog,
    recorder: Recorder | None,
    global_state: Any,
    partition: BlockPartition | IndexPartition,
    block_size: int | None,
    ft: bool,
    result_sink: dict,
):
    """Simulator task body for the central load balancer.

    ``recorder`` is the observability sink for rate samples, balancer
    decisions, and move round-trips; ``None`` falls back to the
    cluster's recorder (disabled by default).  ``ft`` runs the
    failure-tolerant runtime.
    """
    m = _Master(
        ctx, plan, run_cfg, log, recorder, global_state, partition, block_size, ft
    )
    kernels = plan.kernels
    exec_num = run_cfg.execute_numerics and global_state is not None

    # Initial hook skip: measuring over less than ~5 quanta makes rates
    # oscillate with context switching (Section 4.3), so slaves skip
    # enough hooks that their first measurement already spans the floor
    # period, assuming dedicated-speed execution.
    mid_unit = (plan.unit_lo + plan.n_units) // 2
    est_rate = run_cfg.cluster.processor.speed / max(
        plan.unit_cost(0, mid_unit), 1.0
    )
    floor_period = max(
        MIN_PERIOD, QUANTUM_MULTIPLE * run_cfg.cluster.processor.quantum
    )
    uph = m._hook_units(m._counts())

    # Initial scatter: each slave gets its units plus the data they own.
    for pid in range(m.n):
        units = m.partition.owned(pid)
        payload: dict[str, Any] = {"units": tuple(int(u) for u in units)}
        if exec_num:
            payload["local"] = kernels.make_local(global_state, np.asarray(units))
        if block_size is not None:
            payload["block_size"] = block_size
        payload["skip"] = hooks_to_skip(floor_period, est_rate, uph.get(pid, 1.0))
        nbytes = (
            kernels.input_bytes(len(units)) if exec_num else 64 * max(1, len(units))
        )
        yield Send(pid, Tags.INIT, payload, nbytes)

    # Control loop: serve reports (and, for WHILE-repetition plans, the
    # convergence barrier of Section 4.1) until every slave is released.
    yield from _control_loop(m)

    # Completeness check: every unit exactly once across slave results.
    seen: dict[int, int] = {}
    for pid, res in m.results.items():
        for u in res["units"]:
            if u in seen:
                raise ProtocolError(f"unit {u} owned by {seen[u]} and {pid}")
            seen[u] = pid
    if len(seen) != plan.unit_count:
        raise ProtocolError(
            f"gather incomplete: {len(seen)}/{plan.unit_count} units returned"
        )
    log.merged_units = len(seen)
    log.final_partition_counts = m._counts()
    if exec_num:
        parts = {
            pid: res["data"]
            for pid, res in m.results.items()
            if res["data"] is not None
        }
        units_by_pid = {pid: np.asarray(res["units"]) for pid, res in m.results.items()}
        log.result = kernels.merge_results(
            global_state,
            {pid: (units_by_pid[pid], parts.get(pid)) for pid in m.results},
        )
    result_sink["log"] = log
