"""Trace recording and rusage accounting tests."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.rusage import RusageReport, TaskUsage
from repro.sim.trace import Trace


class TestTrace:
    def test_record_and_series(self):
        tr = Trace()
        tr.record("x", 0.0, 1.0)
        tr.record("x", 1.0, 2.0)
        ts, vs = tr.series("x")
        np.testing.assert_array_equal(ts, [0.0, 1.0])
        np.testing.assert_array_equal(vs, [1.0, 2.0])

    def test_channels_sorted(self):
        tr = Trace()
        tr.record("b", 0, 1)
        tr.record("a", 0, 1)
        assert list(tr.channels()) == ["a", "b"]

    def test_contains(self):
        tr = Trace()
        tr.record("x", 0, 1)
        assert "x" in tr
        assert "y" not in tr

    def test_unknown_channel_raises(self):
        with pytest.raises(KeyError):
            Trace().series("nope")

    def test_last(self):
        tr = Trace()
        tr.record("x", 0.0, 1.0)
        tr.record("x", 5.0, 9.0)
        assert tr.last("x") == (5.0, 9.0)

    def test_value_at_step_interpolation(self):
        tr = Trace()
        tr.record("x", 1.0, 10.0)
        tr.record("x", 3.0, 30.0)
        assert tr.value_at("x", 1.0) == 10.0
        assert tr.value_at("x", 2.9) == 10.0
        assert tr.value_at("x", 3.0) == 30.0
        assert tr.value_at("x", 99.0) == 30.0

    def test_value_before_first_sample_raises(self):
        tr = Trace()
        tr.record("x", 5.0, 1.0)
        with pytest.raises(SimulationError):
            tr.value_at("x", 1.0)


class TestTaskUsage:
    def test_available_cpu(self):
        u = TaskUsage(pid=0, elapsed=10.0, app_cpu=4.0, competing_cpu=3.0)
        assert u.available_cpu == pytest.approx(7.0)
        assert u.idle_cpu == pytest.approx(3.0)

    def test_clamped_nonnegative(self):
        u = TaskUsage(pid=0, elapsed=1.0, app_cpu=0.5, competing_cpu=2.0)
        assert u.available_cpu == 0.0


class TestRusageReport:
    def _report(self):
        return RusageReport(
            usages=[
                TaskUsage(pid=0, elapsed=10.0, app_cpu=8.0, competing_cpu=2.0),
                TaskUsage(pid=1, elapsed=10.0, app_cpu=9.0, competing_cpu=0.0),
            ],
            t_end=10.0,
        )

    def test_usage_for(self):
        rep = self._report()
        assert rep.usage_for(1).app_cpu == 9.0
        with pytest.raises(KeyError):
            rep.usage_for(9)

    def test_rows_round_trip_in_any_pid_order(self):
        rows = [
            TaskUsage(pid=5, elapsed=10.0, app_cpu=8.0, competing_cpu=2.0),
            TaskUsage(pid=1, elapsed=10.0, app_cpu=9.0, competing_cpu=0.0),
        ]
        rep = RusageReport(usages=rows, t_end=10.0)
        assert rep.usages == tuple(rows)
        assert rep.usage_for(1) == rows[1]
        assert rep.usage_for(5) == rows[0]
        with pytest.raises(KeyError):
            rep.usage_for(0)

    def test_efficiency_formula(self):
        rep = self._report()
        # available = (10-2) + (10-0) = 18; seq = 9 -> eff = 0.5
        assert rep.efficiency(9.0, [0, 1]) == pytest.approx(0.5)

    def test_efficiency_zero_available(self):
        rep = RusageReport(
            usages=[TaskUsage(pid=0, elapsed=1.0, app_cpu=0.0, competing_cpu=5.0)],
            t_end=1.0,
        )
        assert rep.efficiency(1.0, [0]) == 0.0
