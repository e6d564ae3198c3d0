"""Unit tests of the master's bookkeeping (_Master), without a cluster."""

import gc
import types

import pytest

from repro.apps import build_lu, build_matmul, build_sor
from repro.config import ClusterSpec, RunConfig
from repro.errors import ProtocolError
from repro.runtime import run_application
from repro.runtime.frequency import MIN_PERIOD
from repro.runtime.master import MasterLog, _InFlightMove, _Master
from repro.runtime.partition import IndexPartition, Transfer
from repro.runtime.protocol import MoveOrder, SlaveReport


class FakeCtx:
    def __init__(self, n):
        self.n_slaves = n
        self.master_pid = n


def make_master(plan=None, n=3, ft=False):
    plan = plan or build_matmul(n=30, n_slaves_hint=n)
    cfg = RunConfig(cluster=ClusterSpec(n_slaves=n), execute_numerics=False)
    part = IndexPartition.even(plan.unit_count, n, lo=plan.unit_lo)
    return _Master(FakeCtx(n), plan, cfg, MasterLog(), None, None, part, None, ft)


def report(pid, done=False, applied=(), canceled=(), rep=0, remaining=None):
    return SlaveReport(
        pid=pid,
        seq=0,
        units_done=1.0,
        work_time=0.5,
        meas_units=1.0,
        meas_work=0.5,
        owned_count=10,
        rep=rep,
        applied_moves=tuple(applied),
        canceled_moves=tuple(canceled),
        done=done,
        remaining_units=remaining,
    )


class TestAckBookkeeping:
    def test_partition_applied_only_when_both_sides_ack(self):
        m = make_master()
        t = Transfer(src=0, dst=1, units=(9,))
        m._issue_transfers([t], now=1.0)
        before = m.partition.counts()
        m._process_acks(report(0, applied=(0,)))
        assert m.partition.counts() == before  # only one side acked
        m._process_acks(report(1, applied=(0,)))
        assert m.partition.counts() != before
        assert m.log.moves_applied == 1
        assert m.log.units_moved == 1

    def test_cancel_reverts_without_applying(self):
        m = make_master()
        t = Transfer(src=0, dst=1, units=(9,))
        m._issue_transfers([t], now=1.0)
        before = m.partition.counts()
        m._process_acks(report(0, canceled=(0,)))
        m._process_acks(report(1, canceled=(0,)))
        assert m.partition.counts() == before
        assert m.log.moves_canceled == 1
        assert m.log.moves_applied == 0

    def test_unknown_ack_rejected(self):
        m = make_master()
        with pytest.raises(ProtocolError):
            m._process_acks(report(0, applied=(99,)))

    def test_movement_blocked_while_in_flight(self):
        m = make_master()
        m._issue_transfers([Transfer(src=0, dst=1, units=(9,))], now=1.0)
        assert not m._movement_allowed(now=100.0)
        m._process_acks(report(0, applied=(0,)))
        m._process_acks(report(1, applied=(0,)))
        # Orders were never delivered in this unit test; clear them.
        m.pending_orders = {p: [] for p in range(m.n)}
        assert m._movement_allowed(now=100.0)

    def test_movement_rate_limited_by_period(self):
        m = make_master()
        m.last_move_issue_time = 10.0
        assert not m._movement_allowed(now=10.2)
        assert m._movement_allowed(now=10.0 + MIN_PERIOD)


class TestRemainingSets:
    def test_none_for_non_parallel_map(self):
        m = make_master(plan=build_lu(n=20))
        assert m._tail() is None

    def test_steady_state_returns_none(self):
        m = make_master()
        m.note_report(report(0, remaining=tuple(m.partition.owned(0))))
        assert m._tail() is None  # everyone still has work
        assert m._balanced() == (m.partition.counts(), None)

    def test_tail_returns_sets(self):
        m = make_master()
        m.note_report(report(0, remaining=()))  # slave 0 ran dry
        tail = m._tail()
        assert tail is not None
        counts, units_of = m._balanced()
        assert counts == tail
        assert counts[0] == 0 and not units_of(0)
        assert counts[1] == len(units_of(1)) > 0

    def test_stale_remaining_intersected_with_ownership(self):
        m = make_master()
        not_owned_by_1 = tuple(m.partition.owned(0))[:2]
        m.note_report(report(0, remaining=()))
        m.note_report(report(1, remaining=not_owned_by_1))
        counts, units_of = m._balanced()
        assert counts[1] == 0 and not units_of(1)  # stale ids filtered out

    def test_cancelled_tail_cut_reads_no_unit_ids(self, monkeypatch):
        # A tail report whose moves the profitability check cancels
        # reads only the reporter's unfinished units, for its live
        # count: no other slave's ids are read, since none is cut.
        m = make_master()
        m.note_report(report(0, remaining=()))  # slave 0 ran dry
        assert m._tail() == [0, 10, 10]
        m.done_units_accum = m.total_work_units - 1.01  # 0.01 units left
        calls = []
        unfinished = _Master._unfinished

        def counted(self, p):
            calls.append(p)
            return unfinished(self, p)

        monkeypatch.setattr(_Master, "_unfinished", counted)
        m.handle_report(report(1), now=1.0)
        decision = m.log.decision
        assert decision.cancelled == "profitability"
        assert decision.improvement >= m.cfg.balancer.improvement_threshold
        assert calls == [1]
        assert m.in_flight == {}


class TestActivePredicate:
    def test_lu_active_margin(self):
        plan = build_lu(n=20)
        m = make_master(plan=plan)
        m.note_report(report(0, rep=5))
        active = set(m._front()[1](0))
        owned0 = [int(u) for u in m.partition.owned(0)]
        # Units at or before the front (+1 margin) are not movable.
        for u in owned0:
            assert (u in active) == (u > 6)


class TestInFlightMove:
    def test_complete_requires_both(self):
        fl = _InFlightMove(MoveOrder(0, Transfer(src=1, dst=2, units=(3,))))
        assert not fl.complete()
        fl.acked.add(1)
        assert not fl.complete()
        fl.acked.add(2)
        assert fl.complete()


def bank(m, pid):
    """Bank a result for ``pid`` matching what it owns now."""
    units = tuple(int(u) for u in m.partition.owned(pid))
    m.results[pid] = {"units": units, "data": None, "era": m.era}


def answers(m, now=5.0):
    """The instruction replies of one pass over the parked slaves."""
    return {s.dst: s.payload for s in m.answer_parked(now)}


class TestDoneHandshake:
    def test_fault_free_done_report_is_released(self):
        m = make_master()
        instr = m.handle_report(report(0, done=True), now=1.0)
        assert instr.release and m.released == {0}

    def test_held_done_report_parks_until_release(self):
        m = make_master(ft=True)
        # Slave 0 is done, but slave 1 still works: no reply yet.
        bank(m, 0)
        assert m.handle_report(report(0, done=True), now=1.0) is None
        assert m.parked == {0: 0}
        assert answers(m) == {}  # nothing changed for it
        m.last_report[1] = report(1, done=True)
        m.last_report[2] = report(2, done=True)
        bank(m, 1)
        bank(m, 2)
        assert answers(m)[0].release
        assert m.parked == {} and m.released == {0}

    def test_parked_slave_is_woken_by_its_control(self):
        m = make_master(ft=True)
        assert m.handle_report(report(0, done=True), now=1.0) is None
        # A rollback moved the master on to era 1 and sent slave 0 a
        # control: the wake carries the era slave 0 reported in, so it
        # takes the wake and then meets the control.
        m.era = 1
        m.woken.add(0)
        instr = answers(m)[0]
        assert not instr.release and not instr.has_moves()
        assert instr.era == 0
        assert m.parked == {}

    def test_parked_slave_gets_its_orders(self):
        m = make_master(ft=True)
        assert m.handle_report(report(0, done=True), now=1.0) is None
        moved = int(m.partition.owned(1)[0])
        m._issue_transfers([Transfer(src=1, dst=0, units=(moved,))], now=2.0)
        instr = answers(m)[0]
        assert [o.transfer.units for o in instr.recvs] == [(moved,)]
        assert m.parked == {} and m.pending_orders[0] == []


class TestFailureTolerantMaster:
    def test_acked_move_into_dead_slave_is_regranted(self):
        # Slave 1 banked its result early; a move 0 -> 1 is acked by the
        # sender only when slave 1 dies.  Settling that move hands slave
        # 1 the unit, so its banked result is stale and everything it
        # now owns goes to the survivors.
        m = make_master(ft=True)
        bank(m, 1)
        owned1 = set(m.results[1]["units"])
        moved = int(m.partition.owned(0)[0])
        m._issue_transfers([Transfer(src=0, dst=1, units=(moved,))], now=1.0)
        m.pending_orders = {p: [] for p in range(m.n)}  # orders delivered
        m._process_acks(report(0, applied=(0,)))
        m.declare_dead(1, now=2.0)
        assert list(m.partition.owned(1)) == []
        assert 1 not in m.results
        granted = {
            u for _, c in m.ctrl_outbox if c.kind == "grant" for u in c.units
        }
        assert granted == owned1 | {moved}

    def test_release_held_while_rollback_awaits_pulls(self):
        m = make_master(ft=True)
        for p in range(m.n):
            m.last_report[p] = report(p, done=True)
            bank(m, p)
        assert not m._release_held(0)
        m._pending_rollback = {"target": None, "awaiting": {1}}
        assert m._release_held(0)


def _reaches(root, cls) -> bool:
    """Is an instance of ``cls`` reachable from ``root`` through object
    attributes, containers, bound methods and closures?  Classes,
    modules and function globals are not followed."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, cls):
            return True
        if isinstance(obj, types.FunctionType):
            stack.extend(obj.__closure__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return False


@pytest.mark.parametrize(
    "plan",
    [build_matmul(n=24), build_sor(n=24, maxiter=3), build_lu(n=24)],
    ids=["map", "pipeline", "front"],
)
def test_logged_decision_holds_no_master(plan):
    # A decision that kept the master (say, a bound method for its units
    # per hook) would make a master-log cycle that keeps every run's
    # arrays alive until the cyclic collector runs.
    res = run_application(plan, RunConfig(cluster=ClusterSpec(n_slaves=3)))
    assert res.log.decision is not None
    assert not _reaches(res.log.decision, _Master)
