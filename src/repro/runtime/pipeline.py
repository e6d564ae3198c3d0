"""Pipeline-shape slave (SOR): strip-mined wavefront with mid-sweep
work movement.

Execution follows the paper's Figure 3c: at each sweep the slave first
exchanges the sweep-start halo (its first owned column's *old* values go
to the left neighbour; the right neighbour's arrive as the right halo),
then processes row strips in order, receiving the left neighbour's
updated boundary column per strip and sending its own last column right.

Work movement (Section 4.5) is *restricted* to adjacent slaves and may
happen mid-sweep:

- Columns moved rightward arrive one or more strips AHEAD of the
  receiver and are **set aside** until the local iterations catch up,
  at which point they merge seamlessly (their values are already final
  for all earlier strips).
- Columns moved leftward arrive BEHIND and are **caught up**: the
  receiver recomputes them over the missed strips using its own last
  column as the left halo and an old-value snapshot shipped in the
  payload as the right halo, then re-sends refreshed boundary values to
  the sender.

Boundary messages carry a per-neighbour *generation* number that both
sides bump at their movement application point, so stale boundary values
sent before a movement can never be confused with post-movement ones.
A movement whose sender is already in the final sweep is cancelled
(both sides report the cancellation), because a receiver that finished
the application could no longer reconstruct the halo history needed for
catch-up.
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from ..ckpt import SlaveSnapshot
from ..errors import MovementError, ProtocolError
from ..sim import Poll, Send
from .movement import MovePayload
from .protocol import MoveOrder, Tags
from .slave import SlaveCore

__all__ = ["PipelineSlave"]


class PipelineSlave(SlaveCore):
    """Interpreter for loop-carried-dependence pipelines."""

    def __init__(self, ctx, plan, run_cfg, init, ft):
        super().__init__(ctx, plan, run_cfg, init, ft)
        if plan.strip is None:
            raise ProtocolError("pipeline plan without strip spec")
        # Per-run resolved strip: the startup-sized block depends on the
        # cluster (Section 4.4), so the shared plan is never mutated.
        from ..compiler.plan import StripSpec

        self.strip = StripSpec(
            loop_var=plan.strip.loop_var,
            total=plan.strip.total,
            block_size=int(init["block_size"]),
        )
        self.nb = self.strip.n_blocks()
        self.total_rows = self.strip.total
        # Generation counters, one per neighbour pair (see module doc).
        self.gen_left = 0
        self.gen_right = 0
        # Out-of-order neighbour messages (future-gen boundaries, halos).
        self.stash: dict[str, Any] = {}
        # A rightward-moved payload waiting for local iterations to catch
        # up (at most one; the master keeps one movement round in flight).
        self.set_aside: tuple[MoveOrder, MovePayload] | None = None
        # Data-dependent WHILE termination (Section 4.1): set when the
        # master's reduced residual satisfies the exit condition.
        self.stopped = False
        # Sweeps whose right-halo receive must be skipped: after giving
        # away our rightmost columns exactly at a sweep boundary, the
        # retained (stale) copy of the moved leftmost column IS the
        # old-value halo for the next sweep, and the receiver may not
        # have merged (and bumped generations) before sending its halo.
        self.skip_halo_recv: set[int] = set()
        # Pipeline ring neighbours.  Initially adjacency in pid order;
        # a checkpoint rollback re-links the ring around dead slaves.
        self.left_pid: int | None = self.pid - 1 if self.pid > 0 else None
        self.right_pid: int | None = (
            self.pid + 1 if self.pid < ctx.n_slaves - 1 else None
        )

    # ------------------------------------------------------------------
    # Position helpers
    # ------------------------------------------------------------------

    def _lin(self, rep: int, block: int) -> int:
        return rep * self.nb + block

    def _lin_next(self) -> int:
        """Linear index of the next strip to process."""
        return self._lin(self.rep, self.block)

    def work_remaining(self) -> bool:
        return self.rep < self.plan.reps and not self.stopped

    # ------------------------------------------------------------------
    # Main sweep loop
    # ------------------------------------------------------------------

    def work_loop(self) -> Generator[Any, Any, None]:
        plan = self.plan
        k = self.kernels()
        while self.rep < plan.reps and not self.stopped:
            rep = self.rep
            if self.block == 0:
                if self.ckpt.enabled:
                    # Top of sweep: the checkpoint barrier point
                    # (checkpointing implies the failure-tolerant
                    # runtime).  The neighbour waits below serve controls
                    # only when they expire, so serve them here once (and
                    # deposit a pending snapshot) even on a fast path.
                    yield from self._poll_ctrl()
                if plan.dynamic_reps:
                    # Deferred movement executes at the sweep boundary,
                    # after the convergence barrier: every element's
                    # update is then counted in exactly one slave's
                    # residual (no mid-sweep catch-up can slip between a
                    # residual report and the WHILE test).
                    yield from self._execute_send_orders()
                yield from self._sweep_start(rep)
            while self.block < self.nb:
                self._merge_set_aside_if_due()
                b = self.block
                rows = self.strip.block_range(b)
                left_halo = None
                if self.left_pid is not None:
                    msg = yield from self._recv_neighbor(
                        self.left_pid,
                        lambda r=rep, b=b: Tags.boundary(r, b, self.gen_left),
                    )
                    left_halo = msg.payload
                n_rows = rows[1] - rows[0]
                frac = n_rows / self.total_rows
                ops = plan.units_cost(rep, self.owned) * frac
                holder: dict[str, Any] = {}

                def _do(rows=rows, left_halo=left_halo, rep=rep):
                    holder["bnd"] = k.run_block(self.local, rep, rows, left_halo)

                dt = yield from self.compute(ops, fn=_do)
                self.note_access(dt, self.owned, rep)
                if self.right_pid is not None:
                    yield Send(
                        self.right_pid,
                        Tags.boundary(rep, b, self.gen_right),
                        holder.get("bnd"),
                        k.boundary_bytes(n_rows) if self.exec_num else 8 * n_rows,
                    )
                self.count_units(len(self.owned) * frac)
                self.block += 1
                yield from self.lb_hook()
                yield from self._poll_moves()
            self._merge_set_aside_if_due()
            if plan.dynamic_reps:
                yield from self._convergence_barrier(rep)
            self.rep += 1
            self.block = 0

    def _convergence_barrier(self, rep: int) -> Generator[Any, Any, None]:
        """End-of-sweep WHILE-condition test (Section 4.1).

        The slave reports its local residual; the master reduces all
        slaves' residuals, evaluates the loop condition, and broadcasts
        continue/stop before anyone enters the next sweep.  Cost-only
        simulations report an infinite residual (the condition cannot be
        evaluated without numerics), so they run the full trip-count cap.
        """
        k = self.kernels()
        res = k.sweep_residual(self.local, rep) if self.exec_num else float("inf")
        # With checkpointing the residual carries the rollback era, so
        # the master can discard stale pre-rollback values computed over
        # a partition that no longer exists.
        payload: Any = {"era": self.era, "res": res} if self.ckpt.enabled else res
        yield Send(self.master, Tags.residual(rep), payload, 16)
        msg = yield from self._wait(self.master, Tags.cont(rep + 1))
        if not msg.payload:
            self.stopped = True

    def _sweep_start(self, rep: int) -> Generator[Any, Any, None]:
        """Sweep-start halo exchange (the paper's communication outside
        the distributed loop), move-aware so a movement applied at the
        tail of the previous sweep merges before halo generations are
        compared."""
        yield from self._poll_moves()
        self._merge_set_aside_if_due()
        k = self.kernels()
        if self.left_pid is not None:
            payload = k.sweep_first_boundary(self.local, rep) if self.exec_num else None
            yield Send(
                self.left_pid,
                Tags.halo(rep, self.gen_left),
                payload,
                (
                    k.boundary_bytes(self.total_rows)
                    if self.exec_num
                    else 8 * self.total_rows
                ),
            )
        if self.right_pid is not None:
            if rep in self.skip_halo_recv:
                # Our grid still holds the moved-away leftmost column's
                # values from the previous sweep — exactly the old-value
                # halo this sweep needs.  The neighbour's halo message
                # (whatever its generation) is intentionally left unread.
                self.skip_halo_recv.discard(rep)
            else:
                msg = yield from self._recv_neighbor(
                    self.right_pid, lambda r=rep: Tags.halo(r, self.gen_right)
                )
                if self.exec_num:
                    k.set_right_halo(self.local, rep, msg.payload)

    # ------------------------------------------------------------------
    # Neighbour receive with move/generation awareness
    # ------------------------------------------------------------------

    def _recv_neighbor(self, src: int, expected_fn) -> Generator[Any, Any, Any]:
        """Receive the message currently expected from a neighbour.

        Any other message that arrives meanwhile is dispatched: movement
        payloads are handled (possibly merging work and bumping the
        expected generation, which is why ``expected_fn`` is re-evaluated
        each time), everything else is stashed for later."""

        def check(msg):
            tag = expected_fn()
            if msg is None:
                return self.stash.pop(tag, None)
            if msg.tag == tag:
                return msg
            if msg.tag.startswith("lb.move."):
                order = self._order_for_payload(msg)
                if order is not None:
                    yield from self._accept_move(order, msg.payload)
            elif msg.tag == Tags.CKPT:
                # Buddy placement: the neighbour may also be our ward.
                self._store_buddy_deposit(msg.payload)
            else:
                self.stash[msg.tag] = msg
            return None

        return (yield from self._wait(src, check=check))

    # ------------------------------------------------------------------
    # Movement: sending side
    # ------------------------------------------------------------------

    def execute_moves(self) -> Generator[Any, Any, None]:
        if self.plan.dynamic_reps and self.block != 0 and self.work_remaining():
            # Mid-sweep sends are deferred to the next sweep boundary on
            # dynamic-reps plans (see _convergence_barrier).
            yield from self._poll_moves()
            return
        yield from self._execute_send_orders()
        yield from self._poll_moves()

    def _execute_send_orders(self) -> Generator[Any, Any, None]:
        k = self.kernels()
        for order in self.ledger.take_sends():
            units = order.transfer.units
            for u in units:
                if u not in self.owned:
                    raise MovementError(f"slave {self.pid} told to send unowned {u}")
            to_right = order.transfer.dst == self.pid + 1
            if not to_right and order.transfer.dst != self.pid - 1:
                raise MovementError("pipeline movement must be adjacent")
            final_sweep = self.rep >= self.plan.reps - 1 and self.block > 0
            completed_all = self.rep >= self.plan.reps or self.stopped
            if final_sweep or completed_all:
                # Mid-final-sweep movement cannot pay off and the receiver
                # could not catch up past the end; cancel cooperatively.
                payload = MovePayload(order.move_id, units, None, {"canceled": True})
                yield Send(
                    order.transfer.dst, Tags.move(order.move_id), payload, 64
                )
                self.ledger.mark_canceled(order.move_id)
                continue
            t0 = self.ctx.now
            # Pack is consistent through the last completed strip.
            through = self._lin_next() - 1
            rep_s, block_s = divmod(through, self.nb) if through >= 0 else (-1, -1)
            ctx = {
                "shape": "pipeline",
                "rep": rep_s,
                "through_block": block_s,
                "direction": "to_right" if to_right else "to_left",
            }
            data = (
                k.pack_units(self.local, np.asarray(units), ctx)
                if self.exec_num
                else None
            )
            meta = {"through_lin": through, "canceled": False}
            for u in units:
                self.owned.remove(u)
            if to_right:
                self.gen_right += 1
                if block_s == self.nb - 1:
                    self.skip_halo_recv.add(rep_s + 1)
            else:
                self.gen_left += 1
            payload = MovePayload(order.move_id, units, data, meta)
            yield Send(
                order.transfer.dst,
                Tags.move(order.move_id),
                payload,
                nbytes=order.transfer.count * self.plan.movement.unit_bytes,
            )
            t1 = self.ctx.now
            self.ledger.record_cost(t1 - t0, order.transfer.count)
            self.ledger.mark_sent(order.move_id)
            self.note_move("send", t0, t1, order)

    # ------------------------------------------------------------------
    # Movement: receiving side
    # ------------------------------------------------------------------

    def _poll_moves(self) -> Generator[Any, Any, None]:
        for order in self.ledger.pending_recvs():
            msg = yield Poll(src=order.transfer.src, tag=Tags.move(order.move_id))
            if msg is not None:
                yield from self._accept_move(order, msg.payload)

    def _accept_move(
        self, order: MoveOrder, payload: MovePayload
    ) -> Generator[Any, Any, None]:
        if payload.meta.get("canceled"):
            self.ledger.mark_canceled(order.move_id)
            return
        from_left = order.transfer.src == self.pid - 1
        if not from_left and order.transfer.src != self.pid + 1:
            raise MovementError("pipeline movement must be adjacent")
        through = payload.meta["through_lin"]
        completed = self._lin_next() - 1
        if from_left:
            # Sender is ahead or equal: set aside until we reach it.
            if through < completed:
                raise MovementError(
                    f"rightward move behind receiver: {through} < {completed}"
                )
            if self.set_aside is not None:
                raise MovementError("second rightward move while one is set aside")
            self.set_aside = (order, payload)
            self._merge_set_aside_if_due()
        else:
            # Sender is behind or equal: merge now with catch-up.
            if through > completed:
                raise MovementError(
                    f"leftward move ahead of receiver: {through} > {completed}"
                )
            yield from self._merge_from_right(order, payload, through, completed)

    def _merge_set_aside_if_due(self) -> None:
        if self.set_aside is None:
            return
        order, payload = self.set_aside
        through = payload.meta["through_lin"]
        completed = self._lin_next() - 1
        if through != completed:
            return
        self.set_aside = None
        t0 = self.ctx.now
        k = self.kernels()
        units = payload.units
        rep_s, block_s = divmod(through, self.nb) if through >= 0 else (-1, -1)
        if self.exec_num:
            k.unpack_units(
                self.local,
                np.asarray(units),
                payload.data,
                {
                    "shape": "pipeline",
                    "rep": rep_s,
                    "through_block": block_s,
                    "direction": "from_left",
                },
            )
        self.owned = sorted(set(self.owned) | set(units))
        self.gen_left += 1
        t1 = self.ctx.now
        self.ledger.record_cost(t1 - t0, order.transfer.count)
        self.ledger.complete_recv(order.move_id)
        self.note_move("recv", t0, t1, order)

    def _merge_from_right(
        self, order: MoveOrder, payload: MovePayload, through: int, completed: int
    ) -> Generator[Any, Any, None]:
        t0 = self.ctx.now
        k = self.kernels()
        units = payload.units
        rep_s, block_s = divmod(through, self.nb) if through >= 0 else (-1, -1)
        if self.exec_num:
            k.unpack_units(
                self.local,
                np.asarray(units),
                payload.data,
                {
                    "shape": "pipeline",
                    "rep": rep_s,
                    "through_block": block_s,
                    "direction": "from_right",
                },
            )
        self.owned = sorted(set(self.owned) | set(units))
        self.gen_right += 1
        # Catch the moved columns up over the strips the sender missed,
        # and refresh the boundary values the sender will now expect from
        # us (it bumped its generation at pack time).
        catch_lins = list(range(through + 1, completed + 1))
        if catch_lins:
            blocks = []
            for lin in catch_lins:
                r, b = divmod(lin, self.nb)
                if r != (catch_lins[0] // self.nb) and r != rep_s:
                    pass  # catch-up never spans past one sweep; see module doc
                blocks.append((r, self.strip.block_range(b)))
            n_rows = sum(hi - lo for _r, (lo, hi) in blocks)
            frac_units = len(units) * n_rows / self.total_rows
            ops = (
                self.plan.units_cost(blocks[0][0], list(units))
                * n_rows
                / self.total_rows
            )
            holder: dict[str, Any] = {}

            def _do():
                holder["refreshed"] = k.catchup_and_refresh(
                    self.local,
                    blocks[0][0],
                    np.asarray(units),
                    [rows for _r, rows in blocks],
                )

            dt = yield from self.compute(ops, fn=_do)
            self.note_access(dt, units, blocks[0][0], name="catchup")
            self.count_units(frac_units)
            refreshed = holder.get("refreshed") or [None] * len(blocks)
            src = order.transfer.src
            for (r, rows), values in zip(blocks, refreshed):
                b = rows[0] // self.strip.resolved()
                yield Send(
                    src,
                    Tags.boundary(r, b, self.gen_right),
                    values,
                    (
                        k.boundary_bytes(rows[1] - rows[0])
                        if self.exec_num
                        else 8 * (rows[1] - rows[0])
                    ),
                )
        t1 = self.ctx.now
        self.ledger.record_cost(t1 - t0, order.transfer.count)
        self.ledger.complete_recv(order.move_id)
        self.note_move("recv", t0, t1, order)
        if self.obs.enabled:
            self.obs.emit_span(
                "pipeline",
                "catchup",
                t0,
                t1,
                pid=self.pid,
                value=float(len(units)),
                meta={
                    "move_id": order.move_id,
                    "strips": len(catch_lins),
                    "through": through,
                },
            )
            self.obs.metrics.counter("pipeline.catchups").inc()
            self.obs.metrics.counter("pipeline.catchup_strips").inc(len(catch_lins))

    # ------------------------------------------------------------------
    # Checkpoint barrier + rollback restore (RunConfig.ckpt)
    # ------------------------------------------------------------------

    def _ckpt_barrier_reachable(self, meta: dict[str, Any]) -> bool:
        # The barrier is the top of sweep ``barrier`` (block 0, before
        # any strip of that sweep runs); mid-sweep state is not a
        # dependence-safe cut.
        barrier = int(meta["barrier"])
        return self.rep < barrier or (self.rep == barrier and self.block == 0)

    def _at_ckpt_barrier(self, meta: dict[str, Any]) -> bool:
        return self.rep == int(meta["barrier"]) and self.block == 0

    def _restore_shape(self, snap: SlaveSnapshot, meta: dict[str, Any]) -> None:
        # All survivors restart with identical fresh generation counters
        # (the master picks a base beyond any pre-rollback value), so no
        # stale boundary or halo tag can ever match again.
        gen = int(meta.get("gen", 0))
        self.gen_left = gen
        self.gen_right = gen
        self.stash = {}
        self.set_aside = None
        self.stopped = False
        self.skip_halo_recv = set()
        if "left" in meta:
            left = meta["left"]
            self.left_pid = None if left is None else int(left)
        if "right" in meta:
            right = meta["right"]
            self.right_pid = None if right is None else int(right)

    def _apply_rollback_grant(self, grant: dict[str, Any]) -> None:
        units = tuple(int(u) for u in grant["units"])
        for u in units:
            if u in self.owned:
                raise ProtocolError(
                    f"slave {self.pid} granted unit {u} it already owns"
                )
        if self.exec_num and grant.get("data") is not None:
            self.kernels().unpack_units(
                self.local,
                np.asarray(units),
                grant["data"],
                {"shape": "pipeline"},
            )
        self.owned = sorted(set(self.owned) | set(units))

    # ------------------------------------------------------------------
    # End-of-run drain
    # ------------------------------------------------------------------

    def drain_moves(self) -> Generator[Any, Any, None]:
        """Consume every outstanding movement payload before the result
        gather, then merge a set-aside one that is now due."""
        for order in self.ledger.pending_recvs():
            msg = yield from self._await_move(order)
            if msg is not None:  # None: move voided, its sender died
                yield from self._accept_move(order, msg.payload)
        self._merge_set_aside_if_due()
