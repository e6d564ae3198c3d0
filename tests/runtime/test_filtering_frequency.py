"""Rate filter and frequency selection tests (Sections 3.2, 4.3)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.runtime import frequency
from repro.runtime.filtering import TrendFilter
from repro.runtime.frequency import hooks_to_skip, select_period


class TestTrendFilter:
    def test_first_sample_taken_directly(self):
        f = TrendFilter()
        assert f.value is None
        assert f.update(10.0) == 10.0

    def test_single_outlier_damped(self):
        f = TrendFilter(slow_gain=0.3, fast_gain=0.8, snap_fraction=10.0)
        f.update(10.0)
        v = f.update(13.0)  # one-off spike, within snap band
        assert 10.0 < v < 11.0  # slow gain applied

    def test_sustained_trend_tracks_fast(self):
        f = TrendFilter(slow_gain=0.3, fast_gain=0.8, snap_fraction=10.0)
        f.update(10.0)
        f.update(12.0)
        v = f.update(14.0)  # second consecutive rise: fast gain
        assert v > 12.0

    def test_big_jump_snaps_immediately(self):
        f = TrendFilter(snap_fraction=0.5)
        f.update(10.0)
        v = f.update(3.0)  # 70% drop: snap to fast gain at once
        assert v < 5.0

    def test_oscillation_stays_smooth(self):
        f = TrendFilter(snap_fraction=10.0)
        f.update(10.0)
        for _ in range(10):
            f.update(12.0)
            f.update(8.0)
        # Alternating samples never build a trend; value stays near mean.
        assert 8.0 < f.value < 12.0

    def test_deadband_ignores_jitter(self):
        f = TrendFilter(deadband=0.05, snap_fraction=10.0)
        f.update(10.0)
        f.update(10.2)
        f.update(10.4)
        f.update(10.6)  # all rises within the deadband: no fast gain
        assert f._streak_len == 0

    def test_reset(self):
        f = TrendFilter()
        f.update(5.0)
        f.reset()
        assert f.value is None

    def test_zero_progress_samples_converge_to_zero(self):
        f = TrendFilter()
        f.update(10.0)
        for _ in range(60):
            v = f.update(0.0)  # stalled slave reports no progress
        assert v == pytest.approx(0.0, abs=1e-6)
        assert math.isfinite(v)

    def test_zero_as_first_sample_is_legal(self):
        f = TrendFilter()
        assert f.update(0.0) == 0.0
        assert f.update(0.0) == 0.0  # deadband around zero: no div-by-zero

    def test_non_finite_samples_are_dropped(self):
        f = TrendFilter()
        assert f.update(math.nan) == 0.0  # no state yet: report zero
        assert f.value is None  # ...and nothing was absorbed
        f.update(10.0)
        assert f.update(math.nan) == 10.0
        assert f.update(math.inf) == 10.0
        assert f.value == 10.0
        assert f.update(12.0) > 10.0  # filter still works afterwards

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrendFilter(slow_gain=0.9, fast_gain=0.5)
        with pytest.raises(ConfigError):
            TrendFilter(trend_threshold=0)
        with pytest.raises(ConfigError):
            TrendFilter(deadband=-1.0)
        with pytest.raises(ConfigError):
            TrendFilter(snap_fraction=0.0)
        f = TrendFilter()
        with pytest.raises(ConfigError):
            f.update(-1.0)

    @given(samples=st.lists(st.floats(0.1, 100.0), min_size=1, max_size=50))
    def test_value_bounded_by_sample_range(self, samples):
        f = TrendFilter()
        for s in samples:
            f.update(s)
        assert min(samples) - 1e-9 <= f.value <= max(samples) + 1e-9

    @given(
        start=st.floats(1.0, 100.0),
        target=st.floats(1.0, 100.0),
    )
    def test_converges_to_constant_input(self, start, target):
        f = TrendFilter()
        f.update(start)
        for _ in range(40):
            f.update(target)
        assert f.value == pytest.approx(target, rel=0.01)


class TestPeriodSelection:
    def test_floor_binds_for_cheap_costs(self):
        b = select_period(0.001, 0.01, 0.1)
        assert b.period == 0.5
        assert b.binding_constraint() in ("floor", "quantum")

    def test_movement_bound(self):
        b = select_period(0.001, 20.0, 0.1)
        assert b.period == pytest.approx(2.0)
        assert b.binding_constraint() == "movement"

    def test_interaction_bound(self):
        b = select_period(0.2, 0.1, 0.1)
        assert b.period == pytest.approx(4.0)
        assert b.binding_constraint() == "interaction"

    def test_quantum_bound(self):
        b = select_period(0.001, 0.01, 0.5)
        assert b.period == pytest.approx(2.5)
        assert b.binding_constraint() == "quantum"

    def test_validation(self):
        with pytest.raises(ConfigError):
            select_period(-1.0, 0.0, 0.1)
        with pytest.raises(ConfigError):
            select_period(0.0, 0.0, 0.0)

    @given(
        inter=st.floats(0.0, 10.0),
        move=st.floats(0.0, 100.0),
        quantum=st.floats(0.01, 1.0),
    )
    def test_period_at_least_every_bound(self, inter, move, quantum):
        b = select_period(inter, move, quantum)
        assert b.period >= frequency.MIN_PERIOD
        assert b.period >= frequency.INTERACTION_MULTIPLE * inter - 1e-12
        assert b.period >= frequency.MOVEMENT_MULTIPLE * move - 1e-12
        assert b.period >= frequency.QUANTUM_MULTIPLE * quantum - 1e-12


class TestHooksToSkip:
    def test_basic(self):
        # 0.5 s period at 20 units/s with 1 unit per hook: skip 10.
        assert hooks_to_skip(0.5, 20.0, 1.0) == 10

    def test_at_least_one(self):
        assert hooks_to_skip(0.5, 0.001, 100.0) == 1

    def test_zero_rate(self):
        assert hooks_to_skip(0.5, 0.0, 1.0) == 1

    def test_block_hooks(self):
        # 100 units per hook: every hook already exceeds the period.
        assert hooks_to_skip(0.5, 20.0, 100.0) == 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            hooks_to_skip(0.0, 1.0, 1.0)
        with pytest.raises(ConfigError):
            hooks_to_skip(1.0, 1.0, 0.0)
