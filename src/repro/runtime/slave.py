"""Slave runtime: the generated SPMD program's execution engine.

A slave executes an :class:`~repro.compiler.plan.ExecutionPlan` on one
simulated processor: it computes its owned loop iterations, fires
load-balancing hooks (Section 4.2), measures its computation rate in
work units per second (Section 3.2), exchanges status/instructions with
the central balancer (synchronous or pipelined, Section 3.3), and moves
work (Section 4.5).  The task-queue trick of Section 4.1 holds: a
slave's "task queue" is its index array of owned iterations plus a
per-unit completed-repetition counter, and task switching is advancing
an index.

This module implements the machinery shared by all schedule shapes plus
the PARALLEL_MAP (MM) and REDUCTION_FRONT (LU) interpreters; the
PIPELINE interpreter (SOR) lives in :mod:`repro.runtime.pipeline`.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

import numpy as np

from ..ckpt import SlaveSnapshot
from ..compiler.plan import ExecutionPlan, LoopShape
from ..config import RunConfig
from ..errors import MovementError, ProtocolError
from ..fastcopy import fast_state_copy
from ..obs import NULL_RECORDER
from ..sim import Compute, Now, Poll, Recv, Send, TaskContext
from .movement import MovementLedger, MovePayload
from .partition import Transfer
from .protocol import (
    CKPT_MANIFEST_BYTES,
    CTRL_ACK_BYTES,
    HB_BYTES,
    REPORT_BYTES,
    Ctrl,
    CtrlAck,
    Instructions,
    MoveOrder,
    SlaveReport,
    Tags,
)

__all__ = [
    "slave_task",
    "SlaveCore",
    "ParallelMapSlave",
    "ReductionFrontSlave",
    "RollbackSignal",
]

#: Failure-tolerant runtime: a slave that has sent the master nothing
#: (status report, ack) for this long sends an explicit heartbeat, so
#: silence means trouble, not idleness.  The master's ``DEAD_AFTER``
#: must comfortably exceed it.
HEARTBEAT_INTERVAL = 0.5


class RollbackSignal(Exception):
    """Internal control flow: unwind the slave's lifecycle to restore a
    checkpoint.  Raised by :meth:`SlaveCore._poll_ctrl` after a rollback
    control is acknowledged; caught only by :meth:`SlaveCore.main`.
    Never surfaces to callers (it is not a :class:`~repro.errors.ReproError`).
    """


def slave_task(ctx: TaskContext, plan: ExecutionPlan, run_cfg: RunConfig):
    """Simulator task body for one slave (dispatches on plan shape)."""
    msg = yield Recv(src=ctx.master_pid, tag=Tags.INIT)
    init = msg.payload
    if plan.shape is LoopShape.PARALLEL_MAP:
        core: SlaveCore = ParallelMapSlave(ctx, plan, run_cfg, init)
    elif plan.shape is LoopShape.REDUCTION_FRONT:
        core = ReductionFrontSlave(ctx, plan, run_cfg, init)
    elif plan.shape is LoopShape.PIPELINE:
        from .pipeline import PipelineSlave

        core = PipelineSlave(ctx, plan, run_cfg, init)
    else:  # pragma: no cover - closed enum
        raise ProtocolError(f"unknown shape {plan.shape}")
    ctx.core = core  # exposes slave state for tests and diagnostics
    yield from core.main()


class SlaveCore:
    """State and master-interaction machinery shared by all shapes."""

    def __init__(
        self,
        ctx: TaskContext,
        plan: ExecutionPlan,
        run_cfg: RunConfig,
        init: dict[str, Any],
    ):
        self.ctx = ctx
        self.plan = plan
        self.cfg = run_cfg
        self.pid = ctx.pid
        self.master = ctx.master_pid
        self.obs = getattr(ctx, "obs", NULL_RECORDER)
        self.owned: list[int] = sorted(int(u) for u in init["units"])
        self.local = init.get("local")
        self.exec_num = run_cfg.execute_numerics and self.local is not None
        self.ledger = MovementLedger(self.pid)
        # Rate measurement accumulators (units/sec, Section 3.2).  The
        # per-report deltas feed progress accounting; the measurement
        # accumulators only reset once they span several scheduling
        # quanta, so sub-quantum bursts cannot bias the rate (4.3).
        self.units_done = 0.0
        self.work_time = 0.0
        self.meas_units = 0.0
        self.meas_work = 0.0
        self.min_measurement = 2.0 * run_cfg.cluster.processor.quantum
        # Hook frequency control (4.3).
        self.hook_count = 0
        self.skip = max(1, int(init.get("skip", 1)))
        self.seq = 0
        self.outstanding_replies = 0
        self.rep = 0
        self.block = 0
        self.released = False
        # Failure-tolerant runtime (RunConfig.ft): _wait's Recv then
        # also expires at the next heartbeat.
        self.ft = run_cfg.ft
        self._last_master_send = 0.0
        self._ctrl_acks: dict[int, str] = {}  # ctrl seq -> recorded status
        # (era, owned) of the result last sent, so a failure-tolerant
        # slave's repeated done reports and its release don't resend it.
        self._result_key: tuple[int, tuple[int, ...]] | None = None
        # Checkpoint/rollback runtime (RunConfig.ckpt; inert while
        # cfg.ckpt.enabled is False — no snapshots, no extra messages).
        self.ckpt = run_cfg.ckpt
        self.era = 0  # master's rollback era; stale-era traffic is dropped
        self._pending_ckpt: dict[str, Any] | None = None
        self._rollback_meta: dict[str, Any] | None = None
        self._local_ckpts: dict[int, SlaveSnapshot] = {}
        # Buddy placement: (epoch, pid) -> snapshot held for a peer.
        self._buddy_store: dict[tuple[int, int], SlaveSnapshot] = {}
        self._pull_replies: list[SlaveSnapshot] = []

    # -- small helpers ---------------------------------------------------

    def kernels(self):
        return self.plan.kernels

    def compute(self, ops: float, fn=None) -> Generator[Any, Any, float]:
        """Issue a measured computation; returns its wall duration."""
        t0 = yield Now()
        yield Compute(ops, fn=fn if self.exec_num else None)
        t1 = yield Now()
        self.work_time += t1 - t0
        self.meas_work += t1 - t0
        return t1 - t0

    def count_units(self, n: float) -> None:
        """Credit ``n`` completed work units to both accumulators."""
        self.units_done += n
        self.meas_units += n

    def note_access(
        self, dt: float, units, rep: int, name: str = "write"
    ) -> None:
        """Record a batch of element writes as an ``access`` span.

        ``dt`` is the duration of the compute that performed the writes
        (call this immediately after it, so ``ctx.now`` is its end).
        The happens-before replay checker (``repro.analysis.replay``)
        pairs these spans with ``net`` message spans to prove every
        cross-slave handoff of an element was ordered by a message.
        """
        if not self.obs.enabled:
            return
        t1 = self.ctx.now
        self.obs.emit_span(
            "access",
            name,
            t1 - dt,
            t1,
            pid=self.pid,
            value=float(len(units)),
            meta={"units": [int(u) for u in units], "rep": int(rep)},
        )

    # -- master interaction (hooks, Section 4.2/4.3/3.3) -----------------

    def lb_hook(self) -> Generator[Any, Any, None]:
        """Conditional call to the load-balancing code."""
        if not self.cfg.dlb_enabled:
            return  # static distribution: hooks compiled in but disabled
        self.hook_count += 1
        if self.ft:
            yield from self._poll_ctrl()
            yield from self._maybe_heartbeat()
        if self.hook_count < self.skip:
            return
        self.hook_count = 0
        yield from self._exchange(done=False)

    # -- failure tolerance (RunConfig.ft, docs/fault-tolerance.md) -------

    def _maybe_heartbeat(self) -> Generator[Any, Any, None]:
        """Send an explicit heartbeat if the master has heard nothing
        from us for a heartbeat interval (reports and acks also count)."""
        if self.ctx.now - self._last_master_send >= HEARTBEAT_INTERVAL:
            yield from self._heartbeat()

    def _heartbeat(self) -> Generator[Any, Any, None]:
        self._last_master_send = self.ctx.now
        yield Send(self.master, Tags.HB, self.pid, HB_BYTES)

    def _poll_ctrl(self) -> Generator[Any, Any, None]:
        """Apply and acknowledge any recovery controls from the master.

        Receipt is idempotent: a retransmitted control (same seq) is not
        re-applied, but is re-acknowledged with the recorded status in
        case the original ack was lost.
        """
        while True:
            msg = yield Poll(src=self.master, tag=Tags.CTRL)
            if msg is None:
                break
            yield from self._handle_ctrl_msg(msg)
        if self.ckpt.enabled:
            yield from self._ckpt_housekeeping()

    def _handle_ctrl_msg(self, msg) -> Generator[Any, Any, None]:
        """Apply and acknowledge one control message.

        Raises :class:`RollbackSignal` after acknowledging a freshly
        applied rollback (the ack must go out first so the master stops
        retrying; the seq dedup keeps retransmissions from re-raising).
        """
        ctrl: Ctrl = msg.payload
        status = self._ctrl_acks.get(ctrl.seq)
        fresh = status is None
        if fresh:
            status = self._apply_ctrl(ctrl)
            self._ctrl_acks[ctrl.seq] = status
        self._last_master_send = self.ctx.now
        yield Send(
            self.master,
            Tags.CTRL_ACK,
            CtrlAck(self.pid, ctrl.seq, status),
            CTRL_ACK_BYTES,
        )
        if fresh and ctrl.kind == "rollback":
            raise RollbackSignal()

    def _apply_ctrl(self, ctrl: Ctrl) -> str:
        if ctrl.kind in ("cancel_send", "cancel_recv"):
            assert ctrl.move_id is not None
            return (
                "canceled" if self.ledger.void(ctrl.move_id) else "applied"
            )
        if ctrl.kind == "grant":
            self.apply_grant(ctrl.units, ctrl.data, ctrl.meta)
            return "ok"
        if ctrl.kind == "ckpt":
            return self._accept_ckpt(dict(ctrl.meta))
        if ctrl.kind == "ckpt_pull":
            key = (int(ctrl.meta["epoch"]), int(ctrl.meta["pid"]))
            snap = self._buddy_store.get(key)
            if snap is None:
                return "miss"
            self._pull_replies.append(snap)
            return "ok"
        if ctrl.kind == "rollback":
            self._rollback_meta = dict(ctrl.meta)
            return "ok"
        raise ProtocolError(f"slave {self.pid}: unknown control {ctrl.kind!r}")

    def apply_grant(
        self, units: tuple[int, ...], data: Any, meta: dict[str, Any]
    ) -> None:
        """Take ownership of reassigned units (failure recovery)."""
        raise ProtocolError(
            f"slave {self.pid}: work reassignment is not supported for "
            f"shape {self.plan.shape.name}"
        )

    # -- checkpointing (RunConfig.ckpt, repro.ckpt) -----------------------

    def _accept_ckpt(self, meta: dict[str, Any]) -> str:
        """Record a checkpoint request; ``miss`` when the barrier already
        passed (the master aborts the epoch and retries with margin)."""
        if self.released or not self._ckpt_barrier_reachable(meta):
            return "miss"
        self._pending_ckpt = meta
        return "ok"

    def _ckpt_barrier_reachable(self, meta: dict[str, Any]) -> bool:
        """PARALLEL_MAP: iterations are independent, so any hook is a
        dependence-safe cut and every request is satisfiable.  Shapes
        with real barriers override."""
        return True

    def _at_ckpt_barrier(self, meta: dict[str, Any]) -> bool:
        """Is the current control point a valid snapshot point for the
        pending request?  (PARALLEL_MAP: always.)"""
        return True

    def _snapshot_extra(self) -> dict[str, Any]:
        """Shape-specific progress captured alongside the data slices."""
        return {}

    def _take_snapshot(self, epoch: int) -> SlaveSnapshot:
        extra = self._snapshot_extra()
        return SlaveSnapshot(
            pid=self.pid,
            epoch=epoch,
            rep=self.rep,
            units=tuple(self.owned),
            local=fast_state_copy(self.local),
            completed=dict(extra.get("completed", {})),
            front_sent=dict(extra.get("front_sent", {})),
            meta=dict(extra.get("meta", {})),
        )

    def _ckpt_housekeeping(self) -> Generator[Any, Any, None]:
        """Checkpoint-side chores at a poll point: accept buddy deposits,
        flush pull replies, and deposit a pending snapshot once the
        barrier is reached."""
        while True:
            msg = yield Poll(tag=Tags.CKPT)
            if msg is None:
                break
            self._store_buddy_deposit(msg.payload)
        while self._pull_replies:
            snap = self._pull_replies.pop(0)
            nbytes = self.kernels().input_bytes(len(snap.units))
            yield Send(
                self.master,
                Tags.CKPT,
                {
                    "kind": "pull",
                    "epoch": snap.epoch,
                    "pid": snap.pid,
                    "snap": snap,
                },
                nbytes,
            )
            self._last_master_send = self.ctx.now
        if self._pending_ckpt is not None and self._at_ckpt_barrier(
            self._pending_ckpt
        ):
            yield from self._deposit_ckpt()

    def _store_buddy_deposit(self, payload: dict[str, Any]) -> None:
        if payload.get("kind") != "deposit":
            return
        pid = int(payload["pid"])
        self._buddy_store[(int(payload["epoch"]), pid)] = payload["snap"]
        # Bound memory: keep the two most recent epochs per peer.
        epochs = sorted(e for e, p in self._buddy_store if p == pid)
        for e in epochs[:-2]:
            self._buddy_store.pop((e, pid), None)

    def _deposit_ckpt(self) -> Generator[Any, Any, None]:
        """Take the pending snapshot and ship it (to the master, or to a
        buddy slave with a small manifest to the master)."""
        meta = self._pending_ckpt
        assert meta is not None
        self._pending_ckpt = None
        epoch = int(meta["epoch"])
        snap = self._take_snapshot(epoch)
        self._local_ckpts[epoch] = snap
        committed = int(meta.get("committed", 0))
        # Keep epoch 0 (always a valid rollback target) plus everything
        # at or above the last globally committed epoch.
        self._local_ckpts = {
            e: s
            for e, s in self._local_ckpts.items()
            if e == 0 or e >= committed
        }
        nbytes = self.kernels().input_bytes(len(self.owned))
        buddy = meta.get("buddy")
        wire = {
            "kind": "deposit",
            "epoch": epoch,
            "pid": self.pid,
            "snap": snap,
        }
        if buddy is None or int(buddy) == self.pid:
            yield Send(self.master, Tags.CKPT, wire, nbytes)
        else:
            yield Send(int(buddy), Tags.CKPT, wire, nbytes)
            manifest = {
                "kind": "manifest",
                "epoch": epoch,
                "pid": self.pid,
                "units": tuple(self.owned),
                "rep": self.rep,
            }
            yield Send(self.master, Tags.CKPT, manifest, CKPT_MANIFEST_BYTES)
        self._last_master_send = self.ctx.now
        if self.obs.enabled:
            self.obs.metrics.counter("ckpt.snapshots").inc()
            self.obs.metrics.counter("ckpt.snapshot_bytes").inc(nbytes)
            self.obs.emit_counter(
                "ckpt",
                "snapshot",
                self.ctx.now,
                float(nbytes),
                pid=self.pid,
                meta={"epoch": epoch, "units": len(self.owned)},
            )

    def _rollback_restore(self) -> None:
        """Restore the checkpoint named by the rollback control and adopt
        grants of the dead slaves' re-partitioned state (no syscalls: the
        lifecycle restarts cleanly afterwards)."""
        meta = self._rollback_meta
        assert meta is not None
        self._rollback_meta = None
        epoch = int(meta["epoch"])
        snap = self._local_ckpts.get(epoch)
        if snap is None:
            raise ProtocolError(
                f"slave {self.pid} has no local snapshot for epoch {epoch}"
            )
        self.local = fast_state_copy(snap.local)
        self.owned = list(snap.units)
        self.rep = snap.rep
        self.block = 0
        self.era = int(meta["era"])
        # Fresh ledger: every pre-rollback order is void.  Moves issued
        # after the epoch cut are pre-voided so their stale payloads and
        # late orders are dropped; the master resolved the same range.
        self.ledger = MovementLedger(self.pid)
        for mid in range(int(meta["void_from"]), int(meta["void_to"])):
            self.ledger.void_quiet(mid)
        self.units_done = 0.0
        self.work_time = 0.0
        self.meas_units = 0.0
        self.meas_work = 0.0
        self.outstanding_replies = 0
        self.released = False
        self._result_key = None
        self._pending_ckpt = None
        self._local_ckpts = {
            e: s for e, s in self._local_ckpts.items() if e <= epoch
        }
        self._restore_shape(snap, meta)
        for grant in meta.get("grants", ()):
            self._apply_rollback_grant(grant)
        if self.obs.enabled:
            self.obs.metrics.counter("ckpt.slave_restores").inc()
            self.obs.emit_counter(
                "ckpt",
                "restore",
                self.ctx.now,
                float(epoch),
                pid=self.pid,
                meta={"era": self.era, "rep": self.rep},
            )

    def _restore_shape(self, snap: SlaveSnapshot, meta: dict[str, Any]) -> None:
        """Shape-specific state reset after a rollback restore."""
        raise ProtocolError(
            f"slave {self.pid}: rollback is not supported for shape "
            f"{self.plan.shape.name}"
        )

    def _apply_rollback_grant(self, grant: dict[str, Any]) -> None:
        """Adopt one grant of a dead slave's checkpointed units."""
        raise ProtocolError(
            f"slave {self.pid}: rollback grants are not supported for "
            f"shape {self.plan.shape.name}"
        )

    # -- waiting ------------------------------------------------------------

    def _wait(
        self,
        src: int | None = None,
        tag: str | None = None,
        *,
        check: Callable[[Any], Generator[Any, Any, Any]] | None = None,
        give_up: Callable[[], bool] | None = None,
    ) -> Generator[Any, Any, Any]:
        """Wait for the next message from ``src`` with ``tag`` (``None``
        matches anything): the slave's one wait primitive, a ``Recv``.

        With failure tolerance the ``Recv`` also expires at the slave's
        next heartbeat, so a slow or dead peer cannot wedge recovery: on
        expiry the slave serves recovery controls, then sends the
        heartbeat unless serving them already sent the master something.
        A wait that accepts any message receives the controls itself —
        its ``check`` dispatches them — so it runs only the checkpoint
        chores on expiry.  Controls thus wait for the next heartbeat
        while the slave is blocked on a peer; the master wakes a parked
        slave with an instruction reply instead.

        ``give_up`` is asked once controls are served; when it holds, the
        wait returns ``None``.  ``check`` makes the wait a dispatch loop
        for callers with a condition of their own: it runs with ``None``
        before every receive (so the caller re-checks after every expiry
        and every message) and with every message received, and the wait
        returns its first non-``None`` result.
        """
        serve_ctrl = src is not None or tag is not None
        while True:
            if check is not None:
                done = yield from check(None)
                if done is not None:
                    return done
            timeout = None
            last = self._last_master_send
            if self.ft:
                timeout = max(0.0, last + HEARTBEAT_INTERVAL - self.ctx.now)
            msg = yield Recv(src=src, tag=tag, timeout=timeout)
            if msg is not None:
                if check is None:
                    return msg
                done = yield from check(msg)
                if done is not None:
                    return done
                continue
            if serve_ctrl:
                yield from self._poll_ctrl()
                if give_up is not None and give_up():
                    return None
            elif self.ckpt.enabled:
                yield from self._ckpt_housekeeping()
            if self._last_master_send == last:
                yield from self._heartbeat()

    def _await_move(self, order: MoveOrder) -> Generator[Any, Any, Any]:
        """Wait for ``order``'s movement payload; ``None`` once the master
        voids the move (its sender died)."""
        mid = order.move_id
        return (
            yield from self._wait(
                order.transfer.src,
                Tags.move(mid),
                give_up=lambda: self.ledger.is_voided(mid),
            )
        )

    def _await_reply(self) -> Generator[Any, Any, None]:
        """Wait for the master's reply to our oldest outstanding report
        and apply it.  Replies from an older rollback era are stale (sent
        before the master rolled the run back) and are dropped; ours is
        still coming."""
        while True:
            msg = yield from self._wait(self.master, Tags.INSTR)
            if (yield from self._take_reply(msg.payload)):
                return

    def _take_reply(self, instr: Instructions) -> Generator[Any, Any, bool]:
        """Apply one instruction reply; ``False`` if it is stale."""
        if instr.era != self.era:
            return False
        self.outstanding_replies -= 1
        yield from self._apply_instructions(instr)
        return True

    def _order_for_payload(self, msg) -> MoveOrder | None:
        """The receive order a movement payload belongs to.

        A payload can outrun the master's order, which is only read at
        hooks while the receiver may be blocked elsewhere.  The payload
        carries its units, so the order is then synthesized from it and
        the ledger drops the late original.  ``None`` for a stale
        pre-rollback payload.
        """
        payload: MovePayload = msg.payload
        if self.ledger.is_voided(payload.move_id):
            return None
        for order in self.ledger.pending_recvs():
            if order.move_id == payload.move_id:
                return order
        return MoveOrder(
            move_id=payload.move_id,
            transfer=Transfer(
                src=msg.src, dst=self.pid, units=tuple(payload.units)
            ),
        )

    def _exchange(self, done: bool) -> Generator[Any, Any, None]:
        applied, canceled, move_cost = self.ledger.pop_report_fields()
        report = SlaveReport(
            pid=self.pid,
            seq=self.seq,
            units_done=self.units_done,
            work_time=self.work_time,
            meas_units=self.meas_units,
            meas_work=self.meas_work,
            owned_count=self.active_owned_count(),
            rep=self.rep,
            block=self.block,
            remaining_units=self.remaining_units_list(),
            applied_moves=applied,
            canceled_moves=canceled,
            measured_move_cost_per_unit=move_cost,
            done=done,
            era=self.era,
        )
        self.seq += 1
        self.units_done = 0.0
        self.work_time = 0.0
        if self.meas_work >= self.min_measurement:
            self.meas_units = 0.0
            self.meas_work = 0.0
        if self.obs.enabled:
            self.obs.emit_counter(
                "slave",
                "report",
                self.ctx.now,
                float(report.owned_count),
                pid=self.pid,
                meta={"seq": report.seq, "done": done},
            )
        yield Send(self.master, Tags.STATUS, report, REPORT_BYTES)
        self._last_master_send = self.ctx.now
        self.outstanding_replies += 1
        if done or not self.cfg.balancer.pipelined:
            # Synchronous interaction (Figure 2a): wait for instructions.
            yield from self._await_reply()
            return
        # Pipelined interaction (Figure 2b): pick up the reply to a
        # *previous* report if it has arrived; never block.  Stale-era
        # replies are dropped without consuming the outstanding count.
        while True:
            msg = yield Poll(src=self.master, tag=Tags.INSTR)
            if msg is None or (yield from self._take_reply(msg.payload)):
                return

    def note_move(self, kind: str, t0: float, t1: float, order: MoveOrder) -> None:
        """Record one work-movement side (marshalling or applying) as a
        ``move/{send,recv}`` span; no-op when observability is off."""
        if not self.obs.enabled:
            return
        count = order.transfer.count
        self.obs.emit_span(
            "move",
            kind,
            t0,
            t1,
            pid=self.pid,
            value=float(count),
            meta={
                "move_id": order.move_id,
                "src": order.transfer.src,
                "dst": order.transfer.dst,
            },
        )
        self.obs.metrics.counter(f"move.units_{kind}").inc(count)

    def _apply_instructions(self, instr: Instructions) -> Generator[Any, Any, None]:
        if getattr(instr, "release", False):
            self.released = True
            return
        self.skip = max(1, instr.skip_hooks)
        self.ledger.add_orders(instr.sends, instr.recvs)
        yield from self.execute_moves()

    # -- work movement (Section 4.5) --------------------------------------

    def execute_sends(self) -> Generator[Any, Any, None]:
        """Execute pending send orders (sends first, so transfer chains
        cannot deadlock)."""
        for order in self.ledger.take_sends():
            t0 = yield Now()
            payload = self.pack_for(order)
            yield Send(
                order.transfer.dst,
                Tags.move(order.move_id),
                payload,
                nbytes=order.transfer.count * self.plan.movement.unit_bytes,
            )
            t1 = yield Now()
            self.ledger.record_cost(t1 - t0, order.transfer.count)
            self.ledger.mark_sent(order.move_id)
            self.note_move("send", t0, t1, order)

    def execute_moves(self) -> Generator[Any, Any, None]:
        yield from self.execute_sends()
        for order in self.ledger.pending_recvs():
            msg = yield from self._await_move(order)
            if msg is None:
                continue  # move voided: its sender died
            t0 = yield Now()
            yield from self.apply_recv(order, msg.payload)
            t1 = yield Now()
            self.ledger.record_cost(t1 - t0, order.transfer.count)
            self.ledger.complete_recv(order.move_id)
            self.note_move("recv", t0, t1, order)

    # -- shape-specific pieces --------------------------------------------

    def active_owned_count(self) -> int:
        return len(self.owned)

    def remaining_units_list(self) -> tuple[int, ...] | None:
        """Unit ids that still carry work (None for shapes where
        ownership is the right balancing measure)."""
        return None

    def pack_for(self, order: MoveOrder) -> MovePayload:
        raise NotImplementedError

    def apply_recv(self, order: MoveOrder, payload: MovePayload):
        raise NotImplementedError

    def work_remaining(self) -> bool:
        raise NotImplementedError

    def work_loop(self) -> Generator[Any, Any, None]:
        raise NotImplementedError

    def result_payload(self) -> dict[str, Any]:
        k = self.kernels()
        return {
            "units": tuple(self.owned),
            "data": k.local_result(self.local) if self.exec_num else None,
        }

    def _send_result(self) -> Generator[Any, Any, None]:
        """Ship the result gather message to the master, once per
        (era, ownership).

        A failure-tolerant slave also sends it before each done report
        (see :meth:`_lifecycle`); movement or a grant after that changes
        ``owned`` (or the era), which re-arms the send.  The era tag keeps
        a result computed before a rollback from shadowing the recomputed
        one.
        """
        key = (self.era, tuple(int(u) for u in self.owned))
        if self._result_key == key:
            return
        self._result_key = key
        payload = self.result_payload()
        payload["era"] = self.era
        nbytes = (
            self.kernels().result_bytes(len(self.owned))
            if self.exec_num
            else 64
        )
        yield Send(self.master, Tags.RESULT, payload, nbytes)

    # -- lifecycle ---------------------------------------------------------

    def drain_moves(self) -> Generator[Any, Any, None]:
        """Wait until every pending movement order has executed (end of
        run; shapes with deferred receives override)."""
        while self.ledger.has_pending():
            yield from self.execute_moves()

    def main(self) -> Generator[Any, Any, None]:
        if self.ckpt.enabled:
            # Epoch 0: the initial state is always a valid rollback
            # target, captured before the first iteration runs.
            self._local_ckpts[0] = self._take_snapshot(0)
        while True:
            try:
                yield from self._lifecycle()
                return
            except RollbackSignal:
                self._rollback_restore()

    def _lifecycle(self) -> Generator[Any, Any, None]:
        while True:
            yield from self.work_loop()
            # Drain outstanding pipelined replies so no movement order is
            # silently abandoned.
            while self.outstanding_replies > 0:
                yield from self._await_reply()
            yield from self.drain_moves()
            if self.work_remaining():
                continue  # movement handed us fresh work
            if self.ft:
                # The failure-tolerant release waits until every result
                # is banked, so a crash in the silent window before
                # suspicion cannot strand the survivors: return ours now.
                yield from self._send_result()
            # Final handshake: report done.  The master answers with
            # movement (we work again) or a release, and parks us until
            # it can; a plain answer wakes us for a recovery control.
            yield from self._exchange(done=True)
            if self.released:
                break
            if self.ft:
                yield from self._poll_ctrl()
        yield from self._send_result()


class ParallelMapSlave(SlaveCore):
    """Interpreter for independent distributed iterations (MM).

    Hooks fire after every distributed iteration (the paper's rule for
    outermost distributed loops).  Unrestricted movement; per-unit
    completed-repetition counters keep moved work consistent even when
    sender and receiver sit in different repetitions.
    """

    def __init__(self, ctx, plan, run_cfg, init):
        super().__init__(ctx, plan, run_cfg, init)
        self.completed: dict[int, int] = {u: 0 for u in self.owned}

    def _snapshot_extra(self) -> dict[str, Any]:
        return {"completed": dict(self.completed)}

    def work_remaining(self) -> bool:
        return any(self.completed[u] < self.plan.reps for u in self.owned)

    def remaining_units_list(self) -> tuple[int, ...]:
        return tuple(
            u for u in self.owned if self.completed[u] < self.plan.reps
        )

    def active_owned_count(self) -> int:
        return len(self.remaining_units_list())

    def _next_unit(self) -> int | None:
        best: int | None = None
        for u in self.owned:
            c = self.completed[u]
            if c >= self.plan.reps:
                continue
            if best is None or (c, u) < (self.completed[best], best):
                best = u
        return best

    def _unit_ops(self, rep: int, u: int) -> float:
        """Actual iteration cost: data-dependent when the kernels know it
        (Table 1 row 6), the compiler's static cost model otherwise."""
        if self.local is not None:
            actual = self.kernels().unit_ops(self.local, rep, u)
            if actual is not None:
                return actual
        return self.plan.unit_cost(rep, u)

    def work_loop(self):
        k = self.kernels()
        while True:
            u = self._next_unit()
            if u is None:
                return
            rep = self.completed[u]
            self.rep = rep
            ops = self._unit_ops(rep, u)
            arr = np.array([u])
            dt = yield from self.compute(
                ops, fn=(lambda: k.run_units(self.local, rep, arr))
            )
            self.note_access(dt, (u,), rep)
            self.completed[u] = rep + 1
            self.count_units(1.0)
            yield from self.lb_hook()

    def apply_grant(
        self, units: tuple[int, ...], data: Any, meta: dict[str, Any]
    ) -> None:
        """Adopt units reassigned from a dead slave.

        Whatever progress the dead slave had made on them is lost with
        it, so the master rebuilds their state from the initial global
        state and resets their completed-repetition counters to zero.
        """
        for u in units:
            if u in self.completed:
                raise ProtocolError(
                    f"slave {self.pid} granted unit {u} it already owns"
                )
        if self.exec_num:
            self.kernels().unpack_units(
                self.local, np.asarray(units), data, {"shape": "parallel_map"}
            )
        completed = meta.get("completed", {})
        for u in units:
            self.owned.append(u)
            self.completed[u] = int(completed.get(u, 0))
        self.owned.sort()

    def pack_for(self, order: MoveOrder) -> MovePayload:
        units = order.transfer.units
        for u in units:
            if u not in self.owned:
                raise MovementError(f"slave {self.pid} told to send unowned {u}")
        k = self.kernels()
        data = (
            k.pack_units(self.local, np.asarray(units), {"shape": "parallel_map"})
            if self.exec_num
            else None
        )
        meta = {"completed": {u: self.completed[u] for u in units}}
        for u in units:
            self.owned.remove(u)
            del self.completed[u]
        return MovePayload(order.move_id, units, data, meta)

    def apply_recv(self, order: MoveOrder, payload: MovePayload):
        k = self.kernels()
        units = payload.units
        if self.exec_num:
            k.unpack_units(
                self.local, np.asarray(units), payload.data, {"shape": "parallel_map"}
            )
        for u in units:
            if u in self.completed:
                raise MovementError(f"slave {self.pid} already owns unit {u}")
            self.owned.append(u)
            self.completed[u] = payload.meta["completed"][u]
        self.owned.sort()
        return
        yield  # pragma: no cover - generator form for interface symmetry


class ReductionFrontSlave(SlaveCore):
    """Interpreter for shrinking broadcast steps (LU).

    Each repetition ``k``: the owner of unit ``k`` computes the front
    (normalised pivot column) and broadcasts it — receivers cannot know
    the owner under dynamic ownership, so the owner sends to everyone
    (Section 4.6).  Only *active* units (> k) are updated; hooks fire at
    the end of each repetition (the deepest level whose overhead is
    negligible once iteration size shrinks, Sections 4.2/4.7).
    """

    def __init__(self, ctx, plan, run_cfg, init):
        super().__init__(ctx, plan, run_cfg, init)
        self.completed: dict[int, int] = {u: 0 for u in self.owned}
        self.front_sent: dict[int, bool] = {u: False for u in self.owned}
        self.front_cache: dict[int, Any] = {}
        self._early_moves: dict[int, Any] = {}
        # Broadcast targets; narrowed by a rollback when peers have died.
        self._front_peers: tuple[int, ...] = tuple(
            p for p in range(ctx.n_slaves) if p != self.pid
        )

    def _snapshot_extra(self) -> dict[str, Any]:
        return {
            "completed": dict(self.completed),
            "front_sent": {
                u: self.front_sent.get(u, False) for u in self.owned
            },
        }

    def _ckpt_barrier_reachable(self, meta: dict[str, Any]) -> bool:
        # While rep == k no owned unit has absorbed front k yet, so the
        # state is a top-of-step-k cut: the barrier is reachable up to
        # and including the current repetition.
        return self.rep <= int(meta["barrier"])

    def _at_ckpt_barrier(self, meta: dict[str, Any]) -> bool:
        return self.rep == int(meta["barrier"])

    def _restore_shape(self, snap: SlaveSnapshot, meta: dict[str, Any]) -> None:
        self.completed = dict(snap.completed)
        self.front_sent = dict(snap.front_sent)
        # Fronts are re-broadcast after the rollback (owners restore with
        # front_sent False from the barrier on), so the cache restarts
        # empty; stale pre-rollback broadcasts still in flight carry the
        # same deterministic values and are harmless.
        self.front_cache = {}
        self._early_moves = {}
        peers = meta.get("peers")
        if peers is not None:
            self._front_peers = tuple(
                int(p) for p in peers if int(p) != self.pid
            )

    def _apply_rollback_grant(self, grant: dict[str, Any]) -> None:
        units = tuple(int(u) for u in grant["units"])
        for u in units:
            if u in self.completed:
                raise ProtocolError(
                    f"slave {self.pid} granted unit {u} it already owns"
                )
        if self.exec_num and grant.get("data") is not None:
            self.kernels().unpack_units(
                self.local,
                np.asarray(units),
                grant["data"],
                {"shape": "reduction_front"},
            )
        completed = grant.get("completed", {})
        front_sent = grant.get("front_sent", {})
        for u in units:
            self.owned.append(u)
            self.completed[u] = int(completed.get(u, 0))
            self.front_sent[u] = bool(front_sent.get(u, False))
        self.owned.sort()

    def active_owned_count(self) -> int:
        lo, hi = self.plan.domain(min(self.rep, self.plan.reps - 1))
        return sum(1 for u in self.owned if lo <= u < hi)

    def work_remaining(self) -> bool:
        return self.rep < self.plan.reps

    def _unit_final_rep(self, u: int) -> int:
        """Last repetition that updates unit ``u`` is ``u - 1`` (the
        domain at rep k is [k+1, n)); afterwards it is inactive."""
        return min(u, self.plan.reps)

    def work_loop(self):
        k_fns = self.kernels()
        plan = self.plan
        while self.rep < plan.reps:
            k = self.rep
            # --- front: owner computes + broadcasts; others receive.
            if k in self.completed:
                front = yield from self._produce_front(k)
            else:
                front = yield from self._recv_front(k)
            self.front_cache[k] = front
            # --- update my active units that are exactly at rep k.
            lo, hi = plan.domain(k)
            todo = [
                u
                for u in self.owned
                if lo <= u < hi and self.completed[u] == k
            ]
            if todo:
                ops = plan.units_cost(k, todo)
                arr = np.asarray(sorted(todo))
                dt = yield from self.compute(
                    ops,
                    fn=(lambda: k_fns.apply_front(self.local, k, front, arr)),
                )
                self.note_access(dt, todo, k)
                for u in todo:
                    self.completed[u] = k + 1
                self.count_units(float(len(todo)))
            self.rep += 1
            yield from self.lb_hook()
            yield from self._poll_moves()

    def execute_moves(self) -> Generator[Any, Any, None]:
        """Reduction-front movement receives are deferred: blocking here
        could deadlock with a sender that waits for a front only we can
        produce.  Payloads are picked up at polls or inside the
        move-aware front receive."""
        yield from self.execute_sends()
        yield from self._poll_moves()

    def _poll_moves(self) -> Generator[Any, Any, None]:
        for order in self.ledger.pending_recvs():
            msg = yield Poll(src=order.transfer.src, tag=Tags.move(order.move_id))
            if msg is not None:
                t0 = yield Now()
                yield from self.apply_recv(order, msg.payload)
                t1 = yield Now()
                self.ledger.record_cost(t1 - t0, order.transfer.count)
                self.ledger.complete_recv(order.move_id)
                self.note_move("recv", t0, t1, order)

    def drain_moves(self) -> Generator[Any, Any, None]:
        yield from self.execute_sends()
        for order in self.ledger.pending_recvs():
            msg = yield from self._await_move(order)
            if msg is None:
                continue  # move voided: its sender died
            yield from self.apply_recv(order, msg.payload)
            self.ledger.complete_recv(order.move_id)

    def _recv_front(self, k: int):
        """Receive the broadcast front for step ``k``.

        Waiting on the bare front tag can deadlock when the front's
        owning unit is in flight toward us (the payload and the master's
        order would sit unread in the mailbox), so this wait dispatches
        whatever arrives: instructions are applied (executing any moves),
        move payloads are applied directly, and the front is returned as
        soon as it shows up — or computed here once its unit moved in.
        """

        def check(msg):
            if msg is None:
                if k in self.front_cache:
                    return True
                msg = yield Poll(tag=Tags.front(k))
                if msg is None:
                    return None
            tag = msg.tag
            if tag.startswith("front."):
                # Ours, or a future step's broadcast (we lag the
                # cluster) kept for when our loop gets there.
                self.front_cache[int(tag.split(".")[1])] = msg.payload
                return True if k in self.front_cache else None
            if tag == Tags.INSTR:
                if not (yield from self._take_reply(msg.payload)):
                    return None
            elif tag.startswith("lb.move."):
                order = self._order_for_payload(msg)
                if order is not None:
                    yield from self.apply_recv(order, msg.payload)
                    self.ledger.complete_recv(order.move_id)
            elif tag == Tags.CTRL:
                yield from self._handle_ctrl_msg(msg)
                if self.ckpt.enabled:
                    yield from self._ckpt_housekeeping()
                return None
            elif tag == Tags.CKPT:
                self._store_buddy_deposit(msg.payload)
                return None
            else:  # pragma: no cover - no other tags reach slaves here
                raise ProtocolError(f"unexpected message {tag} at front recv")
            if k not in self.completed:
                return None
            # A move just handed us the front's unit; compute and
            # broadcast it ourselves.
            self.front_cache[k] = yield from self._produce_front(k)
            return True

        yield from self._wait(check=check)
        return self.front_cache[k]

    def _produce_front(self, k: int):
        """Owner-side front computation + broadcast (skipped if a prior
        owner already broadcast before the unit moved here)."""
        k_fns = self.kernels()
        if self.front_sent.get(k, False):
            # A previous owner broadcast it; our copy of the broadcast is
            # still queued — consume it for the values.
            msg = yield Poll(tag=Tags.front(k))
            if msg is not None:
                return msg.payload
            return self.front_cache.get(k)
        ops = self.plan.front_cost(k) if self.plan.front_cost else 0.0
        holder: dict[str, Any] = {}

        def _do():
            holder["front"] = k_fns.compute_front(self.local, k)

        dt = yield from self.compute(ops, fn=_do)
        self.note_access(dt, (k,), k, name="front")
        front = holder.get("front")
        self.front_sent[k] = True
        nbytes = (
            k_fns.front_bytes(k) if self.exec_num else 8 * max(1, self.plan.n_units - k)
        )
        for other in self._front_peers:
            yield Send(other, Tags.front(k), front, nbytes)
        return front

    def pack_for(self, order: MoveOrder) -> MovePayload:
        units = order.transfer.units
        for u in units:
            if u not in self.completed:
                raise MovementError(f"slave {self.pid} told to send unowned {u}")
        k_fns = self.kernels()
        data = (
            k_fns.pack_units(
                self.local, np.asarray(units), {"shape": "reduction_front"}
            )
            if self.exec_num
            else None
        )
        meta = {
            "completed": {u: self.completed[u] for u in units},
            "front_sent": {u: self.front_sent.get(u, False) for u in units},
        }
        for u in units:
            self.owned.remove(u)
            del self.completed[u]
            self.front_sent.pop(u, None)
        return MovePayload(order.move_id, units, data, meta)

    def apply_recv(self, order: MoveOrder, payload: MovePayload):
        k_fns = self.kernels()
        units = payload.units
        if self.exec_num:
            k_fns.unpack_units(
                self.local,
                np.asarray(units),
                payload.data,
                {"shape": "reduction_front"},
            )
        for u in units:
            if u in self.completed:
                raise MovementError(f"slave {self.pid} already owns unit {u}")
            self.owned.append(u)
            self.completed[u] = payload.meta["completed"][u]
            self.front_sent[u] = payload.meta["front_sent"][u]
        self.owned.sort()
        # Catch moved-in units up to our current repetition using the
        # front cache (sender may have been behind us).
        catchup_ops = 0.0
        catchup_units = 0
        steps: list[tuple[int, list[int]]] = []
        for k in range(self.rep):
            todo = [
                u
                for u in units
                if self.completed[u] == k and k < self._unit_final_rep(u)
            ]
            if todo:
                if k not in self.front_cache:
                    raise MovementError(
                        f"slave {self.pid} missing front {k} for catch-up"
                    )
                steps.append((k, todo))
                catchup_ops += self.plan.units_cost(k, todo)
                catchup_units += len(todo)
                for u in todo:
                    self.completed[u] = k + 1

        def _do():
            for k, todo in steps:
                k_fns.apply_front(
                    self.local, k, self.front_cache[k], np.asarray(sorted(todo))
                )

        if steps:
            dt = yield from self.compute(catchup_ops, fn=_do)
            self.note_access(
                dt,
                sorted({u for _k, todo in steps for u in todo}),
                self.rep,
                name="catchup",
            )
            self.count_units(float(catchup_units))
