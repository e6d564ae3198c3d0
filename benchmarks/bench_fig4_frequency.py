"""Figure 4 — load-balancing period selection bounds."""

from _util import once, save_series

from repro.experiments import fig4_frequency


def test_fig4_period_selection(benchmark):
    series = once(benchmark, fig4_frequency.run)
    save_series("fig4_frequency", series)
    periods = series.column("period")
    bindings = series.column("binding")
    # Paper: the period is never below the 500 ms floor / 5 quanta, and
    # each of the three constraints binds somewhere in the sweep.
    assert all(p >= 0.5 for p in periods)
    assert {"quantum", "movement", "interaction"} <= set(bindings)
