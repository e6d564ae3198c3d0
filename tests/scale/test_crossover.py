"""Crossover-study tests: load regimes, cells, and the analysis rule."""

import pytest

from repro.errors import ConfigError
from repro.scale.crossover import (
    LOAD_STRIDE,
    cell_scaling,
    crossover_analysis,
    regime_loads,
)
from repro.scale.workload import synthetic_bag
from repro.sim import ConstantLoad, OscillatingLoad, StepLoad


class TestRegimeLoads:
    def test_every_stride_th_leaf_is_loaded(self):
        loads = regime_loads("constant", 16)
        assert sorted(loads) == list(range(0, 16, LOAD_STRIDE))
        assert all(isinstance(g, ConstantLoad) for g in loads.values())

    def test_oscillating_phases_are_staggered(self):
        loads = regime_loads("oscillating", 32)
        assert all(isinstance(g, OscillatingLoad) for g in loads.values())
        starts = {g.start for g in loads.values()}
        assert len(starts) > 1

    def test_trace_is_deterministic_in_seed(self):
        a = regime_loads("trace", 16, seed=5)
        b = regime_loads("trace", 16, seed=5)
        c = regime_loads("trace", 16, seed=6)
        assert all(isinstance(g, StepLoad) for g in a.values())
        assert {p: repr(g) for p, g in a.items()} == {
            p: repr(g) for p, g in b.items()
        }
        assert {p: repr(g) for p, g in a.items()} != {
            p: repr(g) for p, g in c.items()
        }

    def test_unknown_regime_rejected(self):
        with pytest.raises(ConfigError, match="regime"):
            regime_loads("bursty", 8)


class TestSyntheticBag:
    def test_surface_matches_plan_contract(self):
        bag = synthetic_bag(64, 1.5e4, unit_bytes=256)
        assert bag.unit_space() == (0, 64)
        assert bag.unit_cost(0, 10) == 1.5e4
        assert bag.total_ops() == 64 * 1.5e4
        assert bag.movement.unit_bytes == 256

    def test_validation(self):
        with pytest.raises(ConfigError):
            synthetic_bag(0, 1e4)
        with pytest.raises(ConfigError):
            synthetic_bag(8, -1.0)


class TestCellScaling:
    def test_cell_races_all_modes(self):
        out = cell_scaling(
            P=8, regime="constant", fanouts=(4,), units_per_leaf=4,
            ops_per_unit=5e4,
        )
        spans = out["meta"]["makespans"]
        assert set(spans) == {"centralized", "hier4", "diffusion"}
        assert all(v > 0 for v in spans.values())
        assert out["meta"]["winner"] in spans
        assert out["metrics"]["wall_s"] > 0
        # Deterministic sim outcomes double as the drift sentinel.
        assert out["meta"]["sim_elapsed"] == spans

    def test_cell_is_deterministic(self):
        kw = dict(
            P=8, regime="trace", fanouts=(4,), units_per_leaf=4,
            ops_per_unit=5e4, seed=2,
        )
        assert cell_scaling(**kw)["meta"]["makespans"] == (
            cell_scaling(**kw)["meta"]["makespans"]
        )


def _fake_cell(P, regime, central, hier, topology="crossbar"):
    return {
        "cell": "scaling",
        "meta": {
            "P": P,
            "regime": regime,
            "topology": topology,
            "makespans": {"centralized": central, "hier8": hier},
        },
    }


class TestCrossoverAnalysis:
    def test_sustained_winning_suffix(self):
        cells = [
            _fake_cell(8, "constant", 10.0, 9.0),    # win (not sustained)
            _fake_cell(32, "constant", 10.0, 11.0),  # loss
            _fake_cell(128, "constant", 10.0, 8.0),  # win...
            _fake_cell(512, "constant", 10.0, 7.0),  # ...sustained
        ]
        out = crossover_analysis(cells)
        assert out["regimes"]["constant"]["crossover_P"] == 128

    def test_margin_filters_ties(self):
        cells = [_fake_cell(64, "constant", 10.0, 9.9)]
        out = crossover_analysis(cells, margin=0.02)
        assert out["regimes"]["constant"]["crossover_P"] is None

    def test_never_wins_is_null(self):
        cells = [
            _fake_cell(8, "trace", 10.0, 11.0),
            _fake_cell(32, "trace", 10.0, 12.0),
        ]
        out = crossover_analysis(cells)
        assert out["regimes"]["trace"]["crossover_P"] is None

    def test_topology_cells_are_excluded_from_sweep(self):
        cells = [
            _fake_cell(8, "constant", 10.0, 11.0),
            _fake_cell(64, "constant", 10.0, 5.0, topology="ring"),
        ]
        out = crossover_analysis(cells)
        points = out["regimes"]["constant"]["points"]
        assert [p["P"] for p in points] == [8]

    def test_points_are_sorted_by_p(self):
        cells = [
            _fake_cell(512, "constant", 10.0, 9.0),
            _fake_cell(8, "constant", 10.0, 9.0),
        ]
        out = crossover_analysis(cells)
        assert [p["P"] for p in out["regimes"]["constant"]["points"]] == [8, 512]
