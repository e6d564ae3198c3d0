"""Balancer decision logic tests (paper Section 3.2)."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import BalancerConfig, NetworkSpec
from repro.runtime import balancer
from repro.runtime.balancer import BalancerState, decide
from repro.runtime.partition import BlockPartition, IndexPartition, cut_units
from repro.runtime.profitability import (
    MovementEstimate,
    estimate_movement_cost,
    movement_profitable,
)
from repro.runtime.protocol import SlaveReport


def make_state(n=4, **cfg_kwargs):
    return BalancerState(
        n_slaves=n,
        config=BalancerConfig(**cfg_kwargs),
        unit_bytes=8 * 500,
        network=NetworkSpec(),
        quantum=0.1,
    )


def report(pid, rate, owned=10, work=1.0, seq=0, rep=0):
    return SlaveReport(
        pid=pid,
        seq=seq,
        units_done=rate * work,
        work_time=work,
        meas_units=rate * work,
        meas_work=work,
        owned_count=owned,
        rep=rep,
    )


def feed(state, rates, work=1.0):
    for pid, r in enumerate(rates):
        state.observe(report(pid, r, work=work))


class TestObserve:
    def test_rates_folded_into_filters(self):
        st_ = make_state()
        feed(st_, [10.0, 20.0, 20.0, 20.0])
        rates = st_.filtered_rates()
        assert rates[0] == pytest.approx(10.0)
        assert rates[1] == pytest.approx(20.0)

    def test_subquantum_measurements_ignored(self):
        st_ = make_state()
        # 0.05 s of measured work < 2 quanta: biased sample, ignored.
        st_.observe(report(0, 100.0, work=0.05))
        assert st_.filters[0].value is None

    def test_unknown_slaves_get_mean_rate(self):
        st_ = make_state()
        st_.observe(report(0, 10.0))
        st_.observe(report(1, 30.0))
        rates = st_.filtered_rates()
        assert rates[2] == pytest.approx(20.0)

    def test_move_cost_measurement_overrides_prior(self):
        st_ = make_state()
        r = report(0, 10.0)
        r.measured_move_cost_per_unit = 0.123
        st_.observe(r)
        assert st_.measured_move_cost
        assert st_.move_cost_per_unit == pytest.approx(0.123)


class TestDecide:
    def _uph(self, n=4):
        return {p: 1.0 for p in range(n)}

    def test_balanced_cluster_no_movement(self):
        st_ = make_state()
        feed(st_, [20.0] * 4)
        part = IndexPartition.even(100, 4)
        d = decide(st_, part.counts(), self._uph(), remaining_units=100)
        assert not d.moves
        assert d.improvement < 0.01

    def test_imbalance_triggers_proportional_movement(self):
        st_ = make_state()
        feed(st_, [10.0, 30.0, 30.0, 30.0])
        part = IndexPartition.even(100, 4)
        d = decide(st_, part.counts(), self._uph(), remaining_units=10000)
        assert d.moves
        total_moved_from_0 = sum(k for src, _, k in d.moves if src == 0)
        # Slave 0 should end up with ~10/100 of the work: gives ~15 of 25.
        assert 10 <= total_moved_from_0 <= 20

    def test_below_threshold_no_movement(self):
        st_ = make_state(improvement_threshold=0.10)
        feed(st_, [19.0, 20.0, 20.0, 20.0])  # ~5% imbalance
        part = IndexPartition.even(100, 4)
        d = decide(st_, part.counts(), self._uph(), remaining_units=10000)
        assert not d.moves
        assert d.cancelled == "threshold"

    def test_zero_threshold_moves_on_any_imbalance(self):
        st_ = make_state(improvement_threshold=0.0, profitability_enabled=False)
        feed(st_, [19.0, 20.0, 20.0, 20.0])
        part = IndexPartition.even(100, 4)
        d = decide(st_, part.counts(), self._uph(), remaining_units=10000)
        assert d.moves

    def test_profitability_cancels_endgame_movement(self):
        st_ = make_state()
        feed(st_, [10.0, 30.0, 30.0, 30.0])
        part = IndexPartition.even(100, 4)
        # Nearly no work left: moving cannot pay off.
        d = decide(st_, part.counts(), self._uph(), remaining_units=0.05)
        assert not d.moves
        assert d.cancelled == "profitability"

    def test_in_flight_blocks_movement(self):
        st_ = make_state()
        feed(st_, [10.0, 30.0, 30.0, 30.0])
        part = IndexPartition.even(100, 4)
        d = decide(
            st_, part.counts(), self._uph(), remaining_units=1e4, allow_movement=False
        )
        assert not d.moves
        assert d.cancelled == "in-flight"

    def test_block_partition_gets_adjacent_transfers(self):
        st_ = make_state()
        feed(st_, [10.0, 30.0, 30.0, 30.0])
        part = BlockPartition.even(100, 4)
        d = decide(
            st_, part.counts(), self._uph(), remaining_units=1e4, adjacent=True
        )
        assert d.moves
        for t in part.cut(d.moves):
            assert abs(t.src - t.dst) == 1

    def test_active_predicate_limits_movement(self):
        st_ = make_state()
        feed(st_, [10.0, 30.0, 30.0, 30.0])
        part = IndexPartition.even(100, 4)
        active = lambda u: u >= 90  # noqa: E731 - only 10 active units
        sets = {p: [u for u in part.units(p) if active(u)] for p in range(4)}
        d = decide(
            st_, [len(s) for s in sets.values()], self._uph(), remaining_units=1e4
        )
        assert d.moves
        for t in cut_units(sets.__getitem__, d.moves):
            assert all(u >= 90 for u in t.units)

    def test_skip_hooks_scale_with_rate(self):
        st_ = make_state()
        feed(st_, [10.0, 40.0, 40.0, 40.0])
        part = IndexPartition.even(100, 4)
        d = decide(st_, part.counts(), self._uph(), remaining_units=1e4)
        # Faster slaves pass more hooks per balancing period.
        assert d.skip_hooks(1) > d.skip_hooks(0)

    def test_blocked_decision_builds_no_targets(self, monkeypatch):
        st_ = make_state()
        feed(st_, [10.0, 30.0, 30.0, 30.0])
        part = IndexPartition.even(100, 4)
        allowed = decide(st_, part.counts(), self._uph(), remaining_units=1e4)

        def no_targets(*args, **kwargs):
            raise AssertionError("a blocked decision built targets")

        monkeypatch.setattr(balancer, "proportional_counts", no_targets)
        blocked = decide(
            st_, part.counts(), self._uph(), remaining_units=1e4, allow_movement=False
        )
        assert blocked.cancelled == "in-flight"
        assert blocked.period == allowed.period
        assert blocked.skip_hooks(0) == allowed.skip_hooks(0)
        monkeypatch.undo()
        # Read later (obs does), they match the allowed decision's.
        assert blocked.improvement == allowed.improvement > 0
        assert blocked.share_deviation == allowed.share_deviation

    def test_decision_metrics_consistent(self):
        st_ = make_state()
        feed(st_, [10.0, 30.0, 30.0, 30.0])
        part = IndexPartition.even(100, 4)
        d = decide(st_, part.counts(), self._uph(), remaining_units=1e4)
        assert d.t_current > d.t_balanced > 0
        assert 0 < d.improvement < 1
        assert d.period >= 0.5


_OBSERVE = st.tuples(
    st.just("observe"),
    st.integers(0, 2),
    # Measured units: zero means no sample, a denormal a zero rate.
    st.one_of(
        st.floats(0.0, 1e3),
        st.floats(1.0, 1e3),
        st.sampled_from([0.0, 5e-324, math.inf, math.nan]),
    ),
    st.sampled_from([1.0, 1.0, 0.05]),  # 0.05 s is under two quanta: ignored
)
_EXCLUDE = st.tuples(st.just("exclude"), st.integers(0, 2))


@given(
    steps=st.lists(st.one_of(_OBSERVE, _OBSERVE, _EXCLUDE), max_size=40),
    filt=st.booleans(),
)
@example(
    steps=[("observe", p, 10.0 * (p + 1), 1.0) for p in range(3)]
    + [("exclude", 1), ("observe", 1, 50.0, 1.0), ("observe", 0, 5.0, 1.0)],
    filt=True,
)
@settings(max_examples=200, deadline=None)
def test_decide_reads_the_fresh_filtered_rates(steps, filt):
    # The rates observe keeps current are bit-equal to a fresh
    # filtered_rates() after every step.
    state = make_state(n=3, filter_enabled=filt)
    part = IndexPartition.even(90, 3)
    for step in steps:
        if step[0] == "observe":
            _, pid, units, work = step
            state.observe(
                SlaveReport(
                    pid=pid,
                    seq=0,
                    units_done=0.0,
                    work_time=work,
                    meas_units=units,
                    meas_work=work,
                    owned_count=30,
                    rep=0,
                )
            )
        else:
            state.exclude(step[1])
        d = decide(state, part.counts(), {}, remaining_units=1e4, allow_movement=False)
        fresh = state.filtered_rates()
        assert [r.hex() for r in d.rates] == [fresh[p].hex() for p in range(3)]


class TestProfitability:
    def test_estimate_analytic(self):
        est = estimate_movement_cost(
            [10],
            unit_bytes=4000,
            bandwidth=100e6,
            latency=5e-4,
            pack_cpu_per_unit=2e-5,
            fixed_cpu=1e-3,
        )
        assert est.total_units == 10
        assert est.total_time > 0

    def test_measured_cost_preferred(self):
        est = estimate_movement_cost(
            [10],
            unit_bytes=4000,
            bandwidth=100e6,
            latency=5e-4,
            pack_cpu_per_unit=2e-5,
            fixed_cpu=1e-3,
            measured_per_unit=0.01,
        )
        assert est.wire_time == pytest.approx(0.1)

    def test_empty_transfers(self):
        est = estimate_movement_cost(
            [], unit_bytes=100, bandwidth=1e6, latency=0, pack_cpu_per_unit=0, fixed_cpu=0
        )
        assert est.total_units == 0
        assert not movement_profitable(est, 10.0, 5.0, horizon=100.0)

    def test_profitable_when_saving_exceeds_cost(self):
        est = MovementEstimate(total_units=10, wire_time=0.01, cpu_time=0.01)
        assert movement_profitable(est, t_current=10.0, t_balanced=5.0, horizon=10.0)

    def test_unprofitable_with_tiny_horizon(self):
        est = MovementEstimate(total_units=10, wire_time=0.5, cpu_time=0.5)
        assert not movement_profitable(est, 10.0, 5.0, horizon=0.1)
