"""Section 4.7 — LU: shrinking work, active slices, automatic frequency.

LU's per-column work shrinks as the elimination front advances, so the
ratio of balancing cost to iteration cost grows; the frequency selector
must stretch the hook skip automatically, and only *active* columns may
move.  The bench also confirms DLB still pays off for LU under load.
"""

from _util import once, save_series

from repro.apps.lu import build_lu
from repro.experiments.common import ExperimentSeries, run_point
from repro.sim import ConstantLoad


def _run():
    n, P = 600, 4
    plan = build_lu(n=n, n_slaves_hint=P)
    loads = {0: ConstantLoad(k=1)}
    series = ExperimentSeries(
        name=f"LU {n}x{n}: shrinking iterations under load (Section 4.7)",
        headers=("config", "t_elapsed", "efficiency", "moves", "units_moved", "reports"),
        expected=(
            "DLB beats static despite shrinking units; balancing reports "
            "stretch out as units shrink (automatic frequency adjustment)"
        ),
    )
    r_sta = run_point(plan, P, loads=loads, dlb=False)
    series.add("static", r_sta.elapsed, r_sta.efficiency, 0, 0, r_sta.log.reports_received)
    r_dlb = run_point(plan, P, loads=loads, dlb=True)
    series.add(
        "dlb", r_dlb.elapsed, r_dlb.efficiency,
        r_dlb.log.moves_applied, r_dlb.log.units_moved, r_dlb.log.reports_received,
    )
    return series, r_dlb


def test_lu_shrinking_work(benchmark):
    series, r_dlb = once(benchmark, _run)
    save_series("lu_adaptation", series)

    rows = {r[0]: r for r in series.rows}
    assert rows["dlb"][1] < rows["static"][1], "DLB must beat static for LU"
    assert rows["dlb"][2] > rows["static"][2]
    assert rows["dlb"][3] >= 1, "work must actually move"

    # Automatic frequency adjustment: the total number of balancing
    # phases stays bounded — far fewer than the 599 elimination steps
    # times 4 slaves that per-step reporting would produce.
    assert r_dlb.log.reports_received < 599 * 4 * 0.5
