"""Table 1 row 6 — data-dependent iteration sizes (extension)."""

from _util import once, save_series

from repro.apps.adaptive import adaptive_application
from repro.compiler.features import extract_features
from repro.experiments import adaptive_irregular


def test_adaptive_irregular(benchmark):
    series = once(benchmark, adaptive_irregular.run)
    save_series("adaptive_irregular", series)

    # The compiler flags the conditional as data-dependent iteration size.
    app = adaptive_application()
    feats = extract_features(app.program, app.directive)
    assert feats.data_dependent_iteration_size
    assert not feats.index_dependent_iteration_size

    # DLB beats static on a DEDICATED cluster: the imbalance is in the
    # data, not the environment.
    for row in series.rows:
        _p, t_sta, t_dlb, eff_sta, eff_dlb, moves, _units = row
        assert t_dlb < t_sta, row
        assert eff_dlb > eff_sta, row
        assert moves >= 1
