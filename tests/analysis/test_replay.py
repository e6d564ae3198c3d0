"""Happens-before replay tests (RA5xx): vector clocks over event logs."""

from repro.analysis import check_replay
from repro.analysis.suite import replay_run
from repro.apps import REGISTRY
from repro.config import BalancerConfig, ClusterSpec, RunConfig
from repro.obs import CounterEvent, SpanEvent
from repro.sim import ConstantLoad


def net(src, dst, t0, t1, tag="x"):
    return SpanEvent(
        "net", "msg", t0, t1, pid=dst, value=8.0, meta={"src": src, "tag": tag}
    )


def acc(pid, t0, t1, units, rep=0):
    return SpanEvent(
        "access",
        "write",
        t0,
        t1,
        pid=pid,
        value=float(len(units)),
        meta={"units": list(units), "rep": rep},
    )


def _codes(found):
    return [d.code for d in found]


class TestSyntheticLogs:
    def test_message_orders_handoff(self):
        events = [acc(1, 0.0, 1.0, [5]), net(1, 2, 1.5, 2.0), acc(2, 3.0, 4.0, [5])]
        assert check_replay(events) == []

    def test_unordered_handoff_is_ra501(self):
        events = [acc(1, 0.0, 1.0, [5]), acc(2, 3.0, 4.0, [5])]
        found = check_replay(events)
        assert _codes(found) == ["RA501"]
        d = found[0]
        assert d.details["first_pid"] == 1 and d.details["second_pid"] == 2

    def test_transitive_chain_orders_handoff(self):
        # 1 -> 3 (the master, say) -> 2 carries knowledge of the write.
        events = [
            acc(1, 0.0, 1.0, [5]),
            net(1, 3, 1.2, 1.5),
            net(3, 2, 1.6, 2.0),
            acc(2, 3.0, 4.0, [5]),
        ]
        assert check_replay(events) == []

    def test_message_sent_before_write_completed_does_not_order(self):
        # The only message leaves mid-write: its snapshot cannot cover
        # the write's end, so the second toucher races.
        events = [acc(1, 0.0, 2.0, [5]), net(1, 2, 0.5, 1.0), acc(2, 3.0, 4.0, [5])]
        assert _codes(check_replay(events)) == ["RA501"]

    def test_same_pid_rewrites_are_not_races(self):
        events = [acc(1, 0.0, 1.0, [5]), acc(1, 2.0, 3.0, [5])]
        assert check_replay(events) == []

    def test_disjoint_units_are_not_races(self):
        events = [acc(1, 0.0, 1.0, [1, 2]), acc(2, 0.5, 1.5, [3, 4])]
        assert check_replay(events) == []

    def test_race_reported_once_per_unit(self):
        events = [
            acc(1, 0.0, 1.0, [5]),
            acc(2, 2.0, 3.0, [5]),
            acc(1, 4.0, 5.0, [5]),
        ]
        assert _codes(check_replay(events)) == ["RA501"]

    def test_no_access_events_is_ra502(self):
        found = check_replay([net(1, 2, 0.0, 1.0)])
        assert _codes(found) == ["RA502"]
        assert found[0].severity.value == "warning"

    def test_malformed_access_is_ra503(self):
        bad = SpanEvent("access", "write", 0.0, 1.0, pid=1, meta={"units": "oops"})
        found = check_replay([bad, acc(1, 2.0, 3.0, [1])])
        assert "RA503" in _codes(found)

    def test_counters_and_other_categories_ignored(self):
        events = [
            CounterEvent("rate", "raw", 1.0, 2.0, pid=1),
            SpanEvent("cpu", "burst", 0.0, 1.0, pid=1),
            acc(1, 0.0, 1.0, [7]),
        ]
        assert check_replay(events) == []

    def test_zero_latency_message_still_orders(self):
        events = [acc(1, 0.0, 1.0, [5]), net(1, 2, 1.0, 1.0), acc(2, 2.0, 3.0, [5])]
        assert check_replay(events) == []


def crash(pid, t):
    return CounterEvent(
        "fault", "injected", t, 1.0, pid=pid, meta={"kinds": ["crash"]}
    )


class TestCrashedHosts:
    def test_unpublished_write_of_crashed_host_is_lost_not_raced(self):
        # Slave 1 writes unit 5 and dies before sending anything more;
        # slave 2 rebuilds the unit from the inputs.
        events = [
            net(1, 3, 0.2, 0.4),
            acc(1, 0.5, 1.0, [5]),
            crash(1, 1.5),
            acc(2, 3.0, 4.0, [5]),
        ]
        assert check_replay(events) == []

    def test_crashed_host_that_never_sent_loses_every_write(self):
        events = [acc(1, 0.0, 1.0, [5]), crash(1, 1.5), acc(2, 3.0, 4.0, [5])]
        assert check_replay(events) == []

    def test_published_write_of_crashed_host_still_races(self):
        # The send after the write publishes it, so a writer that never
        # heard of it races with it, crash or not.
        events = [
            acc(1, 0.0, 1.0, [5]),
            net(1, 3, 1.2, 1.4),
            crash(1, 1.5),
            acc(2, 3.0, 4.0, [5]),
        ]
        assert _codes(check_replay(events)) == ["RA501"]

    def test_other_fault_kinds_lose_nothing(self):
        dropped = CounterEvent(
            "fault", "injected", 1.5, 1.0, pid=1, meta={"kinds": ["drop"]}
        )
        events = [acc(1, 0.0, 1.0, [5]), dropped, acc(2, 3.0, 4.0, [5])]
        assert _codes(check_replay(events)) == ["RA501"]


class TestRecordedRuns:
    def _cfg(self, dlb):
        return RunConfig(
            cluster=ClusterSpec(n_slaves=3),
            balancer=BalancerConfig(pipelined=True),
            execute_numerics=False,
            dlb_enabled=dlb,
        )

    def test_clean_matmul_run_with_movement(self):
        plan = REGISTRY["matmul"](n=16, n_slaves_hint=3)
        found = replay_run(
            plan, self._cfg(True), loads={1: ConstantLoad(k=2)}
        )
        assert found == [], [d.format() for d in found]

    def test_clean_sor_run_with_movement(self):
        plan = REGISTRY["sor"](n=16, n_slaves_hint=3)
        found = replay_run(
            plan, self._cfg(True), loads={1: ConstantLoad(k=2)}
        )
        assert found == [], [d.format() for d in found]

    def test_clean_lu_run(self):
        plan = REGISTRY["lu"](n=16, n_slaves_hint=3)
        found = replay_run(plan, self._cfg(True))
        assert found == [], [d.format() for d in found]

    def test_static_run_has_accesses_too(self):
        plan = REGISTRY["matmul"](n=12, n_slaves_hint=2)
        cfg = RunConfig(
            cluster=ClusterSpec(n_slaves=2),
            execute_numerics=False,
            dlb_enabled=False,
        )
        assert replay_run(plan, cfg) == []
