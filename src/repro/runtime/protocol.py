"""Master <-> slave wire protocol.

All load-balancing traffic uses small fixed tags; application data
(initial scatter, boundary columns, broadcast fronts, moved work, final
results) uses parameterised tags so selective receive can line messages
up exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .partition import Transfer

__all__ = [
    "Tags",
    "SlaveReport",
    "MoveOrder",
    "Instructions",
    "Ctrl",
    "CtrlAck",
    "REPORT_BYTES",
    "INSTR_BYTES",
    "CTRL_BYTES",
    "CTRL_ACK_BYTES",
    "HB_BYTES",
    "CKPT_MANIFEST_BYTES",
]

# Modelled wire sizes of the control messages (small, paper: status and
# instruction exchanges are cheap relative to work movement).
REPORT_BYTES = 64
INSTR_BYTES = 96
CTRL_BYTES = 96
CTRL_ACK_BYTES = 32
HB_BYTES = 16
# A checkpoint manifest (buddy placement) carries bookkeeping only; the
# snapshot data itself is sized from the application's input_bytes.
CKPT_MANIFEST_BYTES = 64


class Tags:
    """Message tag constructors."""

    INIT = "app.init"
    RESULT = "app.result"
    STATUS = "lb.status"
    INSTR = "lb.instr"
    # Failure-tolerant runtime only:
    HB = "lb.hb"  # slave -> master explicit heartbeat, no reply
    CTRL = "lb.ctrl"  # master -> slave recovery control (Ctrl)
    CTRL_ACK = "lb.ctrlack"  # slave -> master control ack (CtrlAck)
    # Checkpointing only (RunConfig.ckpt.enabled): snapshot deposits,
    # buddy manifests, and buddy pull replies all travel on one tag.
    CKPT = "lb.ckpt"

    @staticmethod
    def move(move_id: int) -> str:
        return f"lb.move.{move_id}"

    @staticmethod
    def boundary(rep: int, block: int, gen: int) -> str:
        """Pipeline right-going boundary values for one strip."""
        return f"pipe.bnd.{rep}.{block}.{gen}"

    @staticmethod
    def halo(rep: int, gen: int) -> str:
        """Pipeline sweep-start halo (old values sent to the left)."""
        return f"pipe.halo.{rep}.{gen}"

    @staticmethod
    def front(rep: int) -> str:
        """Broadcast payload of a reduction-front step (LU pivot column)."""
        return f"front.{rep}"

    @staticmethod
    def residual(rep: int) -> str:
        """Slave's local convergence measure after repetition ``rep``."""
        return f"conv.res.{rep}"

    @staticmethod
    def cont(rep: int) -> str:
        """Master's WHILE-condition verdict before repetition ``rep``."""
        return f"conv.cont.{rep}"


@dataclass
class SlaveReport:
    """Performance report a slave sends at a load-balancing hook.

    ``units_done``/``work_time`` are the deltas since the last report
    (used for progress accounting).  ``meas_units``/``meas_work`` define
    the measured computation rate in work units per second — the paper's
    application-specific load measure, which needs no processor weighting
    even on heterogeneous machines (Section 3.2).  Because measuring over
    less than a few scheduling quanta gives rates biased by context
    switching (Section 4.3), the measurement accumulators are only reset
    once they span a valid window, so they may cover several reports.
    """

    pid: int
    seq: int
    units_done: float
    work_time: float
    owned_count: int
    rep: int
    meas_units: float = 0.0
    meas_work: float = 0.0
    block: int = 0
    applied_moves: tuple[int, ...] = ()
    canceled_moves: tuple[int, ...] = ()
    measured_move_cost_per_unit: float | None = None
    done: bool = False
    # PARALLEL_MAP only: the ids of owned units that still carry work.
    # Ownership alone misleads the balancer near the end of a run (a
    # finished slave still owns its complete units), so redistribution
    # decisions use remaining work where the shape allows tracking it.
    remaining_units: tuple[int, ...] | None = None
    # Rollback era (checkpointing only).  The master increments its era
    # on every rollback and drops reports from older eras; 0 until the
    # first rollback.
    era: int = 0

    @property
    def rate(self) -> float | None:
        """Units per second over the measurement window, or None if
        nothing was measured."""
        if self.meas_units <= 0 or self.meas_work <= 0:
            return None
        return self.meas_units / self.meas_work


@dataclass(frozen=True)
class MoveOrder:
    """One work movement a slave takes part in."""

    move_id: int
    transfer: Transfer


@dataclass(frozen=True)
class Ctrl:
    """Failure-recovery control message (master -> slave).

    Sequence-numbered and retried with exponential backoff until
    acknowledged; receipt is idempotent (the slave records seen sequence
    numbers and re-acknowledges duplicates with the original status).

    Kinds:
        ``grant`` — the slave takes ownership of ``units`` (state in
            ``data``/``meta``, rebuilt by the master from its partition
            ledger and the initial global state; per-unit progress resets
            so granted work is recomputed).
        ``cancel_send`` / ``cancel_recv`` — movement ``move_id`` is void
            because the peer died; the ack's status tells the master
            whether this side had already executed its half.
        ``ckpt`` — take a snapshot at the epoch barrier in ``meta``
            (``epoch``/``barrier``/``committed``/``buddy``); the ack is
            ``miss`` when the slave already passed the barrier.
        ``ckpt_pull`` — buddy placement: return the stored snapshot of
            ``meta['pid']`` for epoch ``meta['epoch']`` to the master
            (``miss`` when this slave does not hold it).
        ``rollback`` — restore the local snapshot of ``meta['epoch']``,
            enter era ``meta['era']``, void moves in
            ``[meta['void_from'], meta['void_to'])``, and adopt the
            grants in ``meta['grants']`` (dead slaves' checkpointed
            state re-partitioned by the master).
    """

    seq: int
    kind: str
    move_id: int | None = None
    units: tuple[int, ...] = ()
    data: Any = None
    meta: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CtrlAck:
    """Slave's acknowledgement of one :class:`Ctrl`.

    ``status`` is ``ok`` (applied), ``applied`` (a cancel arrived after
    the movement half already executed), ``canceled`` (the movement
    half was voided before executing), or ``miss`` (a checkpoint barrier
    already passed / a requested buddy snapshot is not held).
    """

    pid: int
    seq: int
    status: str = "ok"


@dataclass
class Instructions:
    """Per-slave instructions from the central load balancer.

    ``skip_hooks`` implements the frequency control of Section 4.3;
    ``sends``/``recvs`` are this slave's movement orders.
    """

    phase: int
    skip_hooks: int = 1
    sends: tuple[MoveOrder, ...] = ()
    recvs: tuple[MoveOrder, ...] = ()
    release: bool = False
    note: str = ""
    # Rollback era (checkpointing only); slaves drop instructions from
    # older eras.  0 until the first rollback.
    era: int = 0

    def has_moves(self) -> bool:
        return bool(self.sends or self.recvs)
