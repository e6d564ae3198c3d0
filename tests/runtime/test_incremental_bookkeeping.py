"""The master's and slaves' incremental bookkeeping, checked against the
per-report rebuilds it replaced, which this module keeps as oracles.

- The master keeps live per-slave remaining counts for PARALLEL_MAP and
  bisects sorted owned lists for a reduction front; each report then
  costs O(P), not O(units).
- A PARALLEL_MAP slave picks its next unit from a heap instead of
  scanning every owned unit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_adaptive, build_lu, build_matmul
from repro.config import ClusterSpec, RunConfig
from repro.runtime.movement import MovePayload
from repro.runtime.partition import Transfer
from repro.runtime.protocol import MoveOrder
from repro.runtime.slave import ParallelMapSlave, ReductionFrontSlave
from repro.sim import Compute, Now
from tests.runtime.test_master_logic import make_master, report


def unfinished_oracle(m):
    """Per slave: owned units intersected with its last reported
    remaining ids, rebuilt from scratch."""
    sets = {}
    for p in range(m.n):
        owned = set(int(u) for u in m.partition.owned(p))
        rep = m.last_report.get(p)
        if rep is None or rep.remaining_units is None:
            sets[p] = tuple(sorted(owned))
        else:
            sets[p] = tuple(sorted(owned & set(rep.remaining_units)))
    return sets


def tail_oracle(sets):
    """The tail test: some slave ran dry while another still has work."""
    lens = [len(s) for s in sets.values()]
    return not (min(lens) > 0 or max(lens) == 0)


def active_predicate_oracle(m):
    """The per-report predicate the reduction front used: a unit is
    movable once it lies past its owner's reported repetition + 1."""
    rep_of = {}
    for p in range(m.n):
        rep = m.last_report[p].rep if p in m.last_report else 0
        for u in m.partition.owned(p):
            rep_of[int(u)] = rep
    return lambda u: u > rep_of.get(u, 0) + 1


def move(m, data, now):
    """Issue one move between two live slaves and settle it (both sides
    ack it, or both cancel it)."""
    live = [p for p in range(m.n) if p not in m.dead]
    donors = [p for p in live if len(m.partition.units(p)) > 0]
    if len(live) < 2 or not donors:
        return
    src = data.draw(st.sampled_from(donors))
    dst = data.draw(st.sampled_from([p for p in live if p != src]))
    units = data.draw(
        st.lists(
            st.sampled_from(list(m.partition.units(src))),
            min_size=1,
            unique=True,
        )
    )
    mid = m.next_move_id
    m._issue_transfers([Transfer(src=src, dst=dst, units=tuple(units))], now)
    key = "canceled" if data.draw(st.booleans()) else "applied"
    m._process_acks(report(src, **{key: (mid,)}))
    m._process_acks(report(dst, **{key: (mid,)}))
    m.pending_orders = {p: [] for p in range(m.n)}  # orders delivered


class TestParallelMapTail:
    @given(data=st.data(), n=st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_live_counts_match_rebuilt_sets(self, data, n):
        m = make_master(plan=build_matmul(n=12, n_slaves_hint=n), n=n, ft=True)
        ids = list(range(12))
        for step in range(data.draw(st.integers(1, 25))):
            now = float(step)
            kind = data.draw(st.sampled_from(["report", "report", "move", "death"]))
            live = [p for p in range(m.n) if p not in m.dead]
            if kind == "report":
                pid = data.draw(st.sampled_from(live))
                remaining = data.draw(
                    st.none()
                    | st.lists(st.sampled_from(ids), unique=True).map(tuple)
                )
                m.note_report(report(pid, remaining=remaining))
            elif kind == "move":
                move(m, data, now)
            elif len(live) > 1:
                # A death sweeps the slave's units into grants.
                m.declare_dead(data.draw(st.sampled_from(live)), now)
            sets = unfinished_oracle(m)
            tail = m._tail()
            assert m._remaining == [len(s) for s in sets.values()]
            if tail_oracle(sets):
                assert tail == [len(s) for s in sets.values()]
                counts, units_of = m._balanced()
                assert counts == tail
                assert {p: tuple(sorted(units_of(p))) for p in sets} == sets
            else:
                assert tail is None


class TestReductionFrontCounts:
    @given(data=st.data(), n=st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_bisect_counts_match_active_predicate(self, data, n):
        plan = build_lu(n=16)
        m = make_master(plan=plan, n=n)
        for step in range(data.draw(st.integers(1, 20))):
            if data.draw(st.booleans()):
                pid = data.draw(st.integers(0, n - 1))
                rep = data.draw(st.integers(0, plan.reps))
                m.note_report(report(pid, rep=rep))
            else:
                move(m, data, float(step))
            active = active_predicate_oracle(m)
            counts, units_of = m._front()
            assert m._balanced()[0] == counts
            assert m._counts() == counts
            for p in range(n):
                expect = [u for u in m.partition.units(p) if active(u)]
                assert counts[p] == len(expect)
                assert list(units_of(p)) == expect


class FakeCtx:
    def __init__(self, n_slaves=3):
        self.pid = 0
        self.master_pid = n_slaves
        self.n_slaves = n_slaves
        self.now = 0.0


def make_slave(cls, plan, units):
    cfg = RunConfig(
        cluster=ClusterSpec(n_slaves=3),
        execute_numerics=False,
        dlb_enabled=False,
    )
    return cls(FakeCtx(), plan, cfg, {"units": tuple(units)}, False)


def drive(gen):
    """Run a slave generator to its end, answering its syscalls."""
    reply = None
    try:
        while True:
            call = gen.send(reply)
            assert isinstance(call, (Now, Compute))
            reply = 0.0 if isinstance(call, Now) else None
    except StopIteration:
        pass


class TestNextUnitOrder:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_heap_follows_min_scan_across_moves_and_grants(self, data):
        plan = build_adaptive(n=24, n_slaves_hint=3)
        reps = plan.reps
        ids = list(range(plan.unit_count))
        mine = data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
        s = make_slave(ParallelMapSlave, plan, mine)
        elsewhere = {u: 0 for u in ids if u not in mine}
        picks = []

        def scan():
            # The per-unit scan the heap replaced.
            best = None
            for u in s.owned:
                c = s.completed[u]
                if c < reps and (best is None or (c, u) < (s.completed[best], best)):
                    best = u
            return best

        pick = s._next_unit

        def checked_pick():
            u = pick()
            assert u == scan()
            picks.append(u)
            return u

        def hook():
            # Work moves only at hooks, as in a run.
            kind = data.draw(st.sampled_from(["none", "none", "send", "recv", "grant"]))
            mid = len(picks)
            if kind == "send" and s.owned:
                units = data.draw(
                    st.lists(st.sampled_from(list(s.owned)), min_size=1, unique=True)
                )
                order = MoveOrder(mid, Transfer(src=0, dst=1, units=tuple(units)))
                elsewhere.update(s.pack_for(order).meta["completed"])
            elif kind in ("recv", "grant") and elsewhere:
                units = data.draw(
                    st.lists(
                        st.sampled_from(sorted(elsewhere)), min_size=1, unique=True
                    )
                )
                done = {u: elsewhere.pop(u) for u in units}
                if kind == "recv":
                    order = MoveOrder(mid, Transfer(src=1, dst=0, units=tuple(units)))
                    payload = MovePayload(mid, tuple(units), None, {"completed": done})
                    drive(s.apply_recv(order, payload))
                else:
                    s.apply_grant(tuple(units), None, {"completed": {}})
            assert s.work_remaining() == (scan() is not None)
            count, left = s.work_left()
            assert left == tuple(u for u in s.owned if s.completed[u] < reps)
            assert count == len(left)
            return
            yield  # pragma: no cover - generator form of lb_hook

        s._next_unit = checked_pick
        s.lb_hook = hook
        drive(s.work_loop())
        assert all(c == reps for c in s.completed.values())
        assert len(picks) >= 1


class TestReductionFrontWindow:
    @given(
        owned=st.lists(st.integers(0, 15), min_size=1, unique=True),
        rep=st.integers(0, 15),
    )
    @settings(max_examples=60, deadline=None)
    def test_window_is_the_domain_slice(self, owned, rep):
        plan = build_lu(n=16)
        s = make_slave(ReductionFrontSlave, plan, owned)
        s.rep = rep
        lo, hi = plan.domain(min(rep, plan.reps - 1))
        count, left = s.work_left()
        assert count == sum(1 for u in s.owned if lo <= u < hi)
        assert left is None
        start, end = s._window(rep)
        lo, hi = plan.domain(rep)
        assert s.owned[start:end] == [u for u in s.owned if lo <= u < hi]
